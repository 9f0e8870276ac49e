// The paper's figures as functions, for the benches to print and the shape
// tests (tests/shapes_test.cpp) to assert. Every experiment runs against one
// baseline: the paper-scale geometry (1024^3 grid, 4096 atoms/step, 31
// steps), a 2 GB (256-atom) cache, k = 15, alpha_0 = 0.5 and the calibrated
// synthetic trace. A figure's cells are independent runs over a trace no run
// modifies; run_cells() spreads them over threads and returns them in cell
// order, so no output depends on the thread count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <future>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/cluster.h"
#include "core/engine.h"
#include "util/thread_pool.h"
#include "workload/generator.h"

namespace jaws::bench {

/// Baseline engine configuration used by every experiment.
core::EngineConfig base_config();

/// Baseline workload spec (the "50k-query week" analogue).
workload::WorkloadSpec base_workload_spec();

/// The baseline trace at `jobs` jobs on `config`'s grid and field.
workload::Workload base_workload(std::size_t jobs, const core::EngineConfig& config);

/// A job count: decimal digits only, fully consumed, from 1 to
/// workload::WorkloadSpec::kMaxJobs. Anything else (empty, signed, trailing
/// text, too many jobs) is nullopt.
std::optional<std::size_t> parse_jobs(const char* text);

/// Job count from argv[1] or JAWS_BENCH_JOBS, defaulting to `fallback`. A
/// malformed count prints the usage to stderr and exits with status 2.
std::size_t jobs_from_args(int argc, char** argv, std::size_t fallback);

/// The scheduler columns of Fig. 10.
core::SchedulerSpec noshare_spec();
core::SchedulerSpec liferaft_spec(double alpha);
/// JAWS_1: two-level + adaptive alpha, no job-awareness.
core::SchedulerSpec jaws1_spec(std::size_t k = 15);
/// JAWS_2: everything on.
core::SchedulerSpec jaws2_spec(std::size_t k = 15);

/// Run one configuration against `workload` and return the report.
core::RunReport run_one(const core::EngineConfig& config, const workload::Workload& workload);

/// Runs cell(0) .. cell(count - 1) on a pool of `threads` workers (inline,
/// in order, when threads <= 1) and returns the results in cell order.
template <typename Cell>
auto run_cells(std::size_t count, std::size_t threads, const Cell& cell)
    -> std::vector<std::invoke_result_t<const Cell&, std::size_t>> {
    using Result = std::invoke_result_t<const Cell&, std::size_t>;
    std::vector<Result> results;
    results.reserve(count);
    if (threads <= 1 || count <= 1) {
        for (std::size_t i = 0; i < count; ++i) results.push_back(cell(i));
        return results;
    }
    util::ThreadPool pool(std::min(threads, count));
    std::vector<std::future<Result>> pending;
    pending.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        pending.push_back(pool.submit([&cell, i] { return cell(i); }));
    for (std::future<Result>& result : pending) results.push_back(result.get());
    return results;
}

/// The runs of one experiment over one trace, in cell order.
struct Experiment {
    std::size_t jobs = 0;     ///< Jobs in the trace.
    std::size_t queries = 0;  ///< Queries in the trace.
    std::vector<core::RunReport> runs;
};

/// Fig. 10: one run per system, each report named after its row.
inline constexpr const char* kFig10Systems[] = {"NoShare", "LifeRaft_1 (a=1)",
                                                "LifeRaft_2 (a=0)", "JAWS_1 (no job-aware)",
                                                "JAWS_2 (full)"};
Experiment fig10(std::size_t jobs, std::size_t threads);

/// Fig. 11: runs[i * std::size(kFig11Systems) + s] is system s at speed-up
/// kFig11Speedups[i]. Speed-ups compress inter-job arrival gaps.
inline constexpr const char* kFig11Systems[] = {"NoShare", "LifeRaft_1", "LifeRaft_2",
                                                "JAWS_2"};
inline constexpr double kFig11Speedups[] = {0.25, 0.5, 1.0, 2.0, 4.0, 8.0};
Experiment fig11(std::size_t jobs, std::size_t threads);

/// Fig. 12: runs[0] is the LifeRaft_2 reference, runs[1 + i] JAWS_2 with
/// batch size kFig12Ks[i].
inline constexpr std::size_t kFig12Ks[] = {1, 2, 5, 10, 15, 20, 30, 50, 80};
Experiment fig12(std::size_t jobs, std::size_t threads);
/// The k of Fig. 12's highest throughput (the smallest such k on a tie).
std::size_t fig12_best_k(const Experiment& fig12);

/// Table I: JAWS_2 with each cache policy. The overhead column is wall time
/// spent inside the policy, so the bench measures it at one thread.
inline constexpr const char* kTable1Policies[] = {"LRU", "LRU-K", "SLRU", "2Q", "URC"};
Experiment table1(std::size_t jobs, std::size_t threads);

/// One tail-sweep cell: JAWS_2 under a heavy-tail level, a stuck-read rate
/// and a hedge policy.
struct TailRow {
    const char* tail = "";
    double stuck_rate = 0.0;
    bool hedged = false;
    core::RunReport report;
};

/// Tail sweep: tail level x stuck rate x hedge, hedged row after its twin.
struct TailSweep {
    std::size_t queries = 0;
    std::vector<TailRow> rows;
};
TailSweep tail_sweep(std::size_t jobs, std::size_t threads);

/// Cancelled-loser service over total disk busy time.
double wasted_fraction(const core::RunReport& r);

inline constexpr std::size_t kClusterNodes = 4;
inline constexpr std::size_t kDeadNode = 1;
inline constexpr double kDeathSeconds = 30.0;

/// One cluster-kernel cell: skew x replication x node death.
struct ClusterRow {
    const char* skew = "";
    std::size_t replication = 1;
    bool death = false;
    core::ClusterReport report;
    /// Mean timeline disk utilisation of the surviving nodes before and
    /// after the death instant (death rows only).
    double survivor_util_before = 0.0;
    double survivor_util_after = 0.0;
};

/// Cluster kernel sweep; per skew, replication 1 .. 3, each without and
/// with a death.
std::vector<ClusterRow> cluster_kernel(std::size_t jobs, std::size_t threads);

/// Replica-served demand reads over all demand reads.
double replica_share(const core::ClusterReport& r);

/// One "key": value member of a JSON object; `value` is JSON text.
struct JsonField {
    std::string key;
    std::string value;
};

/// A member whose value is printed with printf `format`: "%.3f" for a
/// number, "\"%s\"" for a string, "%s" with "true"/"false" for a flag.
[[gnu::format(printf, 2, 3)]] JsonField json_field(const char* key, const char* format, ...);

/// Writes `path`: "bench": `bench`, then `header`, one member per line, then
/// "rows" with one object per line; prints "wrote <path>". Returns false
/// (after saying why on stderr) when the file cannot be written.
bool write_json(const std::string& path, const char* bench, const std::vector<JsonField>& header,
                const std::vector<std::vector<JsonField>>& rows);

}  // namespace jaws::bench
