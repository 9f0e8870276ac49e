#include "report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <set>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> values) {
    if (values.empty()) throw std::invalid_argument("median of an empty sample");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::vector<double> quartiles(std::vector<double> values) {
    if (values.empty()) throw std::invalid_argument("quartiles of an empty sample");
    std::sort(values.begin(), values.end());
    const std::size_t ld = values.size();
    if (ld == 1) return {values[0], values[0], values[0]};
    // statistics.quantiles(method="exclusive"): m = ld + 1, j = i*m // n
    // clamped to [1, ld - 1], delta = i*m - j*n, linear blend of data[j-1]
    // and data[j] with weights (n - delta) / n and delta / n.
    constexpr std::size_t n = 4;
    const std::size_t m = ld + 1;
    std::vector<double> out;
    for (std::size_t i = 1; i < n; ++i) {
        std::size_t j = i * m / n;
        j = std::clamp<std::size_t>(j, 1, ld - 1);
        const double delta = static_cast<double>(i * m) - static_cast<double>(j * n);
        out.push_back((values[j - 1] * (static_cast<double>(n) - delta) + values[j] * delta) /
                      static_cast<double>(n));
    }
    return out;
}

double relative_spread(const std::vector<double>& values) {
    const std::vector<double> q = quartiles(values);
    return q[1] != 0.0 ? (q[2] - q[0]) / std::fabs(q[1]) : 0.0;
}

TailChoice choose_tail(std::size_t samples) {
    for (const int p : {99, 95, 90}) {
        // Integer arithmetic: samples * (100 - p) / 100 lie strictly above
        // the p-th percentile's rank.
        const std::size_t beyond = samples * static_cast<std::size_t>(100 - p) / 100;
        if (beyond >= 10) return TailChoice{p, beyond};
    }
    return TailChoice{50, samples / 2};
}

namespace {
bool is_alnum(char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
}
}  // namespace

bool valid_metric_name(const std::string& name) {
    if (name.empty() || name.size() > 64 || !is_alnum(name[0])) return false;
    return std::all_of(name.begin(), name.end(),
                       [](char c) { return is_alnum(c) || c == '_' || c == '.' || c == '-'; });
}

bool valid_unit(const std::string& unit) {
    if (unit.empty() || unit.size() > 16) return false;
    return std::all_of(unit.begin(), unit.end(), [](char c) {
        return is_alnum(c) || c == '_' || c == '/' || c == '%' || c == '.' || c == '-';
    });
}

std::string format_number(double value) {
    if (!std::isfinite(value)) throw std::invalid_argument("non-finite metric value");
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, value);
    return std::string(buf, res.ptr);
}

std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
    std::set<std::string> seen;
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        if (!valid_metric_name(m.name))
            throw std::invalid_argument("invalid metric name: " + m.name);
        if (!valid_unit(m.unit))
            throw std::invalid_argument("invalid unit for " + m.name + ": " + m.unit);
        if (!seen.insert(m.name).second)
            throw std::invalid_argument("repeated metric name: " + m.name);
        if (i > 0) out += ", ";
        out += "\"" + m.name + "\": {\"value\": " + format_number(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

}  // namespace perfbench
