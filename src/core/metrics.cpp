#include "core/metrics.h"

#include <cstdio>

#include "util/stats.h"

namespace jaws::core {

std::string RunReport::summary() const {
    char buf[320];
    // Percentiles of an empty run are NaN and render as "n/a" rather than a
    // fake 0.0 ms latency.
    std::snprintf(buf, sizeof buf,
                  "%-22s tp=%7.3f q/s  rt(mean)=%9.1f ms  rt(p95)=%9s ms  "
                  "rt(p99)=%9s ms  hit=%5.1f%%  "
                  "reads=%llu  disk=%4.1f%%  cpu=%4.1f%%  overlap=%4.1f%%",
                  scheduler_name.c_str(), throughput_qps, mean_response_ms,
                  util::format_quantile(p95_response_ms).c_str(),
                  util::format_quantile(p99_response_ms).c_str(),
                  100.0 * cache.hit_rate(), static_cast<unsigned long long>(atom_reads),
                  100.0 * disk_utilization, 100.0 * cpu_utilization,
                  100.0 * overlap_fraction);
    return buf;
}

void fill_response_stats(const std::vector<QueryOutcome>& outcomes, RunReport& report) {
    if (outcomes.empty()) {
        // No completions: the response distribution is empty, so every
        // percentile is NaN (percentile({}) — rendered "n/a"), while the
        // additive fields (mean, throughput) stay at their zero defaults.
        report.median_response_ms = util::percentile({}, 50.0);
        report.p95_response_ms = util::percentile({}, 95.0);
        report.p99_response_ms = util::percentile({}, 99.0);
        report.p999_response_ms = util::percentile({}, 99.9);
        return;
    }
    util::RunningStats stats;
    std::vector<double> samples;
    std::vector<double> completions;
    samples.reserve(outcomes.size());
    completions.reserve(outcomes.size());
    // Completion instants enter as offsets from the first completion: the
    // percentile interpolation then rounds the same way wherever the trace
    // sits on the virtual clock, and a shifted trace reports the same
    // steady throughput bit for bit.
    const util::SimTime first = outcomes.front().completed;
    for (const auto& o : outcomes) {
        const double ms = o.response().millis();
        stats.add(ms);
        samples.push_back(ms);
        completions.push_back((o.completed - first).seconds());
    }
    report.mean_response_ms = stats.mean();
    report.median_response_ms = util::percentile(samples, 50.0);
    report.p95_response_ms = util::percentile(samples, 95.0);
    report.p99_response_ms = util::percentile(samples, 99.0);
    report.p999_response_ms = util::percentile(samples, 99.9);

    const double t10 = util::percentile(completions, 10.0);
    const double t90 = util::percentile(completions, 90.0);
    if (t90 > t10)
        report.steady_throughput_qps =
            0.8 * static_cast<double>(outcomes.size()) / (t90 - t10);
    else
        report.steady_throughput_qps = report.throughput_qps;
    report.response_ms = std::move(samples);
}

}  // namespace jaws::core
