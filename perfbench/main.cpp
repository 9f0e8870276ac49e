// jaws_perfbench: what the JAWS simulator costs to run, next to what it
// models. Usage (perfbench/run.py builds it and passes these through):
//
//   jaws_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Every run sets the workload up nine times (setup_s is the median), makes
// one reference run, then repeats the workload for about S seconds. With
// --trace 0 it prints the end-to-end metrics: host cost (sim_qps,
// samples_per_s, setup_s, peak_rss_mb) as medians over the repeats, and the
// virtual-time results (model_*), which are deterministic per seed. With
// --trace 1 it alternates untraced and traced repeats, then replays each
// layer on the workload's inputs, and prints the per-layer metrics. Every
// run is checked (see Gate); the last line of stdout is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "replay.h"
#include "report.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

constexpr int kSetupRepeats = 9;
constexpr std::size_t kMaxPoolThreads = 4;

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
};

bool parse_uint(const char* text, std::uint64_t& out) {
    if (text == nullptr || *text == '\0') return false;
    char* end = nullptr;
    out = std::strtoull(text, &end, 10);
    return *end == '\0' && text[0] != '-';
}

bool parse_args(int argc, char** argv, Args& args) {
    std::map<std::string, const char*> given;
    for (int i = 1; i + 1 < argc; i += 2) given[argv[i]] = argv[i + 1];
    if (argc % 2 != 1 || given.size() != 4) return false;
    std::uint64_t seconds = 0, trace = 0;
    if (!given.count("--workload") || !parse_uint(given["--seed"], args.seed) ||
        !parse_uint(given["--seconds"], seconds) || !parse_uint(given["--trace"], trace) ||
        seconds == 0 || trace > 1)
        return false;
    args.workload = given["--workload"];
    args.seconds = static_cast<double>(seconds);
    args.trace = trace == 1;
    return true;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// The correctness gate. A run fails when its model metrics, exact counters
/// or sample digests differ from the reference run's, when query parts are
/// not conserved, or (materialized runs) when the samples produced do not
/// equal the positions submitted. A failed run's parts all count as failed;
/// a passing run's lost and degraded parts count as failed too.
class Gate {
  public:
    void check(const RunOutcome& r, const RunOutcome& reference, const char* identity_check) {
        attempted_ += r.submitted;
        bool ok = true;
        ok &= expect(r.fingerprint == reference.fingerprint, identity_check);
        ok &= expect(r.completed + r.degraded + r.lost == r.submitted, "parts_conserved",
                     std::to_string(r.completed) + " completed, " + std::to_string(r.degraded) +
                         " degraded, " + std::to_string(r.lost) + " lost, " +
                         std::to_string(r.submitted) + " submitted");
        if (r.expected_interpolated > 0)
            ok &= expect(r.interpolated == r.expected_interpolated &&
                             r.positions == r.interpolated,
                         "samples_match_positions",
                         std::to_string(r.interpolated) + " samples, " +
                             std::to_string(r.expected_interpolated) + " positions submitted, " +
                             std::to_string(r.positions) + " served");
        failed_ += ok ? r.lost + r.degraded : r.submitted;
    }

    /// A failed process-wide check fails every part.
    void fail(const std::string& name) {
        expect(false, name);
        process_failed_ = true;
    }

    bool correct() const { return failures_.empty(); }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return process_failed_ ? attempted_ : failed_; }
    const std::set<std::string>& failures() const { return failures_; }

  private:
    bool expect(bool ok, const std::string& name, const std::string& detail = "") {
        if (!ok && failures_.insert(name).second)
            std::printf("check failed: %s%s%s\n", name.c_str(), detail.empty() ? "" : ": ",
                        detail.c_str());
        return ok;
    }

    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool process_failed_ = false;
    std::set<std::string> failures_;
};

/// Repeat `body` for about `seconds` of wall time: stop once the next repeat,
/// judged by the last one, would overrun by more than half its length.
template <class Body>
void repeat_for(double seconds, Body&& body) {
    const auto start = Clock::now();
    for (;;) {
        const auto t0 = Clock::now();
        body();
        const double last = std::chrono::duration<double>(Clock::now() - t0).count();
        const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
        if (elapsed + last / 2.0 >= seconds) return;
    }
}

std::vector<double> column(const std::vector<RunOutcome>& runs,
                           double (*f)(const RunOutcome&)) {
    std::vector<double> v;
    for (const RunOutcome& r : runs) v.push_back(f(r));
    return v;
}

/// num / den, or 0 when there is nothing to divide by.
template <class Num, class Den>
double ratio(Num num, Den den) {
    const auto d = static_cast<double>(den);
    return d > 0.0 ? static_cast<double>(num) / d : 0.0;
}

double sim_qps(const RunOutcome& r) {
    return static_cast<double>(r.completed + r.degraded) / r.wall_s;
}
double samples_per_s(const RunOutcome& r) { return static_cast<double>(r.positions) / r.wall_s; }

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

int run(const Args& args) {
    // One hardware thread is left to the event thread, which runs alongside
    // the pool: oversubscribing every core makes wall time hostage to any
    // other load on the host.
    const std::size_t hardware = std::thread::hardware_concurrency();
    const std::size_t threads = std::clamp<std::size_t>(hardware > 1 ? hardware - 1 : 1, 1,
                                                        kMaxPoolThreads);
    std::unique_ptr<Workload> workload = make_workload(args.workload, threads);
    if (workload == nullptr) {
        std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
        return 2;
    }

    std::vector<double> setup_s, generate_s, materialize_s;
    for (int i = 0; i < kSetupRepeats; ++i) {
        const SetupTimes t = workload->setup(args.seed);
        setup_s.push_back(t.total_s);
        generate_s.push_back(t.generate_s);
        materialize_s.push_back(t.materialize_s);
    }

    Gate gate;
    const RunOutcome reference = workload->run(false);
    gate.check(reference, reference, "model_identical_to_first_run");
    for (const std::string& name : workload->process_checks()) gate.fail(name);
    const double speedup = workload->speedup_vs_noshare(reference);

    std::vector<Metric> metrics;
    std::vector<RunOutcome> untraced, traced;
    if (!args.trace) {
        repeat_for(args.seconds, [&] {
            untraced.push_back(workload->run(false));
            gate.check(untraced.back(), reference, "model_identical_to_first_run");
        });
        metrics = {
            {"sim_qps", median(column(untraced, sim_qps)), "queries/s"},
            {"samples_per_s", median(column(untraced, samples_per_s)), "samples/s"},
            {"setup_s", median(setup_s), "s"},
            {"peak_rss_mb", peak_rss_mb(), "MB"},
            {"model_qps", reference.model_qps, "queries/s"},
            {"model_p50_ms", reference.model_p50_ms, "ms"},
            {"model_tail_ms", reference.model_tail_ms, "ms"},
            {"model_hit_rate", reference.model_hit_rate, "ratio"},
            {"model_speedup_vs_noshare", speedup, "ratio"},
        };
    } else {
        // Untraced and traced repeats alternate, so drift on the host hits
        // both sides of tracing_overhead_s alike.
        repeat_for(args.seconds, [&] {
            untraced.push_back(workload->run(false));
            gate.check(untraced.back(), reference, "model_identical_to_first_run");
            traced.push_back(workload->run(true));
            gate.check(traced.back(), reference, "traced_counts_identical");
        });
        const RunOutcome& r = reference;
        const ReplayInput input = workload->replay_input();
        const double materialize = median(materialize_s) > 0.0
                                       ? median(materialize_s)
                                       : time_materialize(input, args.seed);
        const auto policy_ns = [](const RunOutcome& t) {
            return ratio(t.policy_overhead_ns, t.headline_queries);
        };
        const auto eval_share = [](const RunOutcome& t) {
            return ratio(t.eval_wall_ns * 1e-9, t.headline_wall_s * t.eval_threads);
        };
        metrics = {
            {"workload.generate_s", median(generate_s), "s"},
            {"workload.materialize_s", materialize, "s"},
            {"cache.policy_ns_per_query", median(column(traced, policy_ns)), "ns"},
            {"cache.evictions", static_cast<double>(r.evictions), "count"},
            {"cache.engine_hit_rate", r.model_hit_rate, "ratio"},
            {"storage.sequential_read_share", ratio(r.sequential_requests, r.disk_requests),
             "ratio"},
        };
        for (const auto& [name, wall] : workload->system_sweep(untraced))
            metrics.push_back({"core.engine_run_s." + name, wall, "s"});
        metrics.push_back({"core.eval_busy_share", median(column(traced, eval_share)), "ratio"});
        metrics.push_back({"core.peak_cpu_busy", static_cast<double>(r.peak_cpu_busy), "count"});
        metrics.push_back(
            {"core.replica_read_share", ratio(r.replica_reads, r.atom_reads), "ratio"});
        metrics.push_back({"core.hedge_win_ratio", ratio(r.hedges_won, r.hedges_issued), "ratio"});
        metrics.push_back(
            {"core.wasted_service_share", ratio(r.wasted_service_s, r.disk_busy_s), "ratio"});
        metrics.push_back({"core.requeued_queries", static_cast<double>(r.requeued), "count"});
        const auto wall = [](const RunOutcome& o) { return o.wall_s; };
        metrics.push_back({"tracing_overhead_s",
                           median(column(traced, wall)) - median(column(untraced, wall)), "s"});
        for (Metric& m : replay_layers(input, traced.front().median_backlog, threads, args.seed))
            metrics.push_back(std::move(m));
    }

    // The host and run record; the result itself is the last line.
    const auto spread = [](const std::vector<double>& v) { return relative_spread(v); };
    std::string record = "{\"record\": {\"workload\": " + quoted(args.workload);
    record += ", \"seed\": " + std::to_string(args.seed);
    record += ", \"trace\": " + std::string(args.trace ? "true" : "false");
    record += ", \"hardware_threads\": " + std::to_string(hardware);
    record += ", \"pool_threads\": " + std::to_string(threads);
    record += ", \"compiler\": " + quoted(PERFBENCH_COMPILER);
    record += ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE);
    record += ", \"setup_repeats\": " + std::to_string(kSetupRepeats);
    record += ", \"untraced_repeats\": " + std::to_string(untraced.size());
    record += ", \"traced_repeats\": " + std::to_string(traced.size());
    record += ", \"repeat_wall_s\": [";
    for (std::size_t i = 0; i < untraced.size(); ++i)
        record += (i > 0 ? ", " : "") + format_number(untraced[i].wall_s);
    record += "]";
    record += ", \"sim_qps_spread\": " + format_number(spread(column(untraced, sim_qps)));
    record += ", \"model_p50_samples\": " + std::to_string(reference.response_samples);
    record += ", \"model_tail_percentile\": \"p" + std::to_string(reference.tail_percentile) + "\"";
    record += ", \"model_tail_samples_beyond\": " +
              std::to_string(choose_tail(reference.response_samples).beyond);
    record += ", \"failed_frac\": " +
              format_number(ratio(static_cast<double>(gate.failed()),
                                  static_cast<double>(gate.attempted())));
    record += ", \"failed_checks\": [";
    bool first = true;
    for (const std::string& name : gate.failures()) {
        record += (first ? "" : ", ") + quoted(name);
        first = false;
    }
    record += "]}}";
    std::printf("%s\n", record.c_str());
    std::printf("%s\n",
                result_line(gate.correct(), gate.attempted(), gate.failed(), metrics).c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    if (!parse_args(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n", argv[0]);
        return 2;
    }
    try {
        return run(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "jaws_perfbench: %s\n", e.what());
        return 1;
    }
}
