// Statistics and result formatting shared by the benchmark and its
// self-test: medians and quartiles over repeated measurements, the choice of
// tail percentile, and the one-line JSON result the benchmark ends with.
// Nothing here depends on the simulator, so perfbench_selftest links only
// this file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count).
/// Throws std::invalid_argument on an empty sample.
double median(std::vector<double> values);

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// the benchmark's own spread figures match the ones its users compute from
/// repeated runs. A single value is its own quartiles. Throws on empty input.
std::vector<double> quartiles(std::vector<double> values);

/// (Q3 - Q1) / median: the run-to-run spread the benchmark's bounds are
/// judged against. 0 when the median is 0.
double relative_spread(const std::vector<double>& values);

/// The tail percentile a latency distribution of `samples` values supports:
/// the highest of p99, p95 and p90 with at least ten samples beyond it, or the
/// median (p50) when even p90 has fewer.
struct TailChoice {
    int percentile = 50;
    std::size_t beyond = 0;  ///< Samples beyond the chosen percentile.
};
TailChoice choose_tail(std::size_t samples);

/// Metric names: a letter or digit first, then at most 63 more letters,
/// digits, '_', '.' or '-'.
bool valid_metric_name(const std::string& name);
/// Units: 1 to 16 letters, digits, '_', '/', '%', '.' or '-'.
bool valid_unit(const std::string& unit);

/// Shortest decimal text that reads back as exactly `value`. Throws
/// std::invalid_argument for NaN or infinity, which JSON cannot carry.
std::string format_number(double value);

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// The benchmark's final line:
/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name:
/// {"value": ..., "unit": ...}, ...}}. Throws std::invalid_argument on an
/// invalid or repeated name, an invalid unit or a non-finite value.
std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
