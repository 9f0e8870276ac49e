// Experiment metrics.
//
// Everything the paper's evaluation reports: query throughput (Fig. 10/11a),
// query response time (Fig. 11b), cache hit ratio and per-query policy
// overhead (Table I), seconds-per-query, plus the gating statistics behind
// the job-awareness results. Collected by the engine over one workload run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/buffer_cache.h"
#include "sched/precedence_graph.h"
#include "sched/prefetcher.h"
#include "sched/qos.h"
#include "storage/disk_model.h"
#include "storage/fault_injector.h"
#include "util/sim_time.h"
#include "workload/query.h"

namespace jaws::core {

/// Incremental FNV-1a over raw bytes. The engine folds every interpolated
/// sample through this at the sub-query's (deterministic) virtual completion
/// event, so two runs produce equal digests iff their results are
/// bit-identical — the parallel-equivalence tests pin these as goldens.
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

inline std::uint64_t fnv1a64(std::uint64_t h, const void* data,
                             std::size_t len) noexcept {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/// Completion record of one query.
struct QueryOutcome {
    workload::QueryId query = 0;
    workload::JobId job = workload::kNoJob;
    util::SimTime visible;    ///< When its inputs were ready.
    util::SimTime completed;  ///< When the last sub-query finished.
    /// Sub-queries whose atom never became readable: its read failed past
    /// the retry limits, or the query ran over its deadline budget while the
    /// read was failing. > 0 means the query completed *degraded*: it
    /// returned partial results instead of crashing the run.
    std::uint64_t failed_subqueries = 0;
    /// Interpolated samples this query produced (0 on descriptor-only runs).
    std::uint64_t samples_evaluated = 0;
    /// FNV-1a over this query's sample bytes in sub-query completion order
    /// (kFnvOffset when no samples were produced).
    std::uint64_t sample_digest = kFnvOffset;
    /// Hedged duplicate reads issued on this query's behalf (HedgeSpec).
    std::uint64_t hedged_reads = 0;
    /// The query exhausted its deadline budget: remaining retries were
    /// abandoned and it completed degraded with the samples it had.
    bool deadline_missed = false;

    util::SimTime response() const noexcept { return completed - visible; }
    bool degraded() const noexcept { return failed_subqueries > 0; }

    bool operator==(const QueryOutcome&) const = default;
};

/// One sample of the run's time series (fixed virtual-time windows).
struct TimelinePoint {
    util::SimTime window_end;        ///< End of the window (virtual time).
    std::uint64_t completions = 0;   ///< Queries completed in the window.
    double mean_response_ms = 0.0;   ///< Mean response of those completions.
    double alpha = 0.0;              ///< Age bias at the window boundary.
    std::size_t backlog_subqueries = 0;  ///< Pending sub-queries at the boundary.
    double cache_hit_rate = 0.0;     ///< Cumulative hit rate at the boundary.
    double disk_utilization = 0.0;   ///< Mean busy disk channels / io_depth.
    double cpu_utilization = 0.0;    ///< Mean busy workers / compute_workers.
    double overlap_fraction = 0.0;   ///< Share of the window both disk and CPU busy.

    bool operator==(const TimelinePoint&) const = default;
};

/// Aggregated results of one engine run.
struct RunReport {
    std::string scheduler_name;
    std::string cache_policy;

    std::size_t queries = 0;
    std::size_t jobs = 0;
    util::SimTime makespan;           ///< Virtual time from start to last completion.
    double throughput_qps = 0.0;      ///< queries / makespan (virtual seconds).
    /// Steady-state throughput: queries completed between the 10th and 90th
    /// completion percentiles divided by that window. Excludes the warm-up
    /// ramp and the closed-loop cool-down tail, where every scheduler is
    /// bound by individual job chains rather than by service capacity; this
    /// is the saturated-regime figure the paper's comparisons are about.
    double steady_throughput_qps = 0.0;
    /// Queries per *busy* virtual second: idle spans, where the engine had no
    /// schedulable work and jumped to the next arrival/visibility event, are
    /// excluded. Under sustained backlog this equals the node's service
    /// capacity — the quantity the paper's throughput comparisons measure —
    /// and it is insensitive to the closed-loop cool-down tail.
    double busy_throughput_qps = 0.0;
    util::SimTime idle_time;          ///< Total virtual time with nothing schedulable.

    double mean_response_ms = 0.0;
    double median_response_ms = 0.0;
    double p95_response_ms = 0.0;
    /// Tail percentiles (NaN when the run completed no queries — an empty
    /// distribution has no percentiles; formatting renders them "n/a").
    double p99_response_ms = 0.0;
    double p999_response_ms = 0.0;
    double mean_job_span_ms = 0.0;    ///< Job completion - job arrival, averaged.
    /// Raw per-query response samples in completion order (the cluster pools
    /// these across nodes for exact cluster-wide percentiles).
    std::vector<double> response_ms;

    cache::CacheStats cache;
    double cache_overhead_per_query_ms = 0.0;  ///< Wall policy overhead per query.
    storage::DiskStats disk;

    // --- modeled-resource accounting (event kernel) ---------------------
    // The engine runs two queued resources: a disk with io_depth service
    // channels and a CPU pool with compute_workers servers. These figures
    // say where a configuration saturates (paper Fig. 11's regime question:
    // is the node I/O-bound or compute-bound?).
    util::SimTime disk_busy_time;    ///< Virtual time >= 1 disk channel was busy.
    util::SimTime cpu_busy_time;     ///< Virtual time >= 1 worker was busy.
    util::SimTime overlap_time;      ///< Time disk and CPU were busy *simultaneously*.
    double disk_utilization = 0.0;   ///< Channel-time integral / (io_depth * makespan).
    double cpu_utilization = 0.0;    ///< Worker-time integral / (workers * makespan).
    double overlap_fraction = 0.0;   ///< overlap_time / makespan.
    std::size_t io_depth = 1;        ///< Channels the run was configured with.
    std::size_t compute_workers = 1; ///< Workers the run was configured with.
    /// Most CPU channels simultaneously busy at any virtual instant — the
    /// modeled concurrency the run actually reached, hence the ceiling on
    /// real-thread speedup from the evaluation pool.
    std::size_t peak_cpu_busy = 0;
    std::size_t peak_disk_busy = 0;  ///< Same watermark for the disk channels.

    // --- real-thread evaluation (EvalSpec; zero on serial/descriptor runs) --
    std::size_t eval_threads = 0;       ///< Pool workers used (0 = inline eval).
    std::uint64_t eval_tasks = 0;       ///< Sub-queries dispatched to the pool.
    std::uint64_t samples_evaluated = 0;  ///< Interpolated samples produced.
    /// FNV-1a over all sample bytes in virtual completion-event order; equal
    /// across runs iff results are bit-identical (kFnvOffset when no samples).
    std::uint64_t sample_digest = kFnvOffset;
    /// Total real nanoseconds workers spent inside sub-query evaluation
    /// (only collected when EvalSpec::wall_clock_timing is on; benches use
    /// it to report real-vs-modeled compute utilisation).
    std::uint64_t eval_wall_ns = 0;

    std::uint64_t atoms_processed = 0;  ///< Batch items executed.
    std::uint64_t atom_reads = 0;       ///< Cache misses (disk reads).
    std::uint64_t replica_reads = 0;    ///< Reads served by another node's replica.
    std::uint64_t support_reads = 0;    ///< Disk reads for kernel-support atoms.
    std::uint64_t subqueries = 0;
    std::uint64_t positions = 0;

    // --- fault injection & recovery (all zero on a fault-free substrate) ---
    std::uint64_t read_retries = 0;      ///< Re-issued demand reads after a fault.
    std::uint64_t read_failures = 0;     ///< Demand reads that exhausted recovery.
    std::uint64_t failed_subqueries = 0; ///< Sub-queries abandoned on dead atoms.
    std::uint64_t degraded_queries = 0;  ///< Queries completed with partial results.
    util::SimTime retry_backoff_time;    ///< Virtual time spent backing off.
    storage::FaultStats faults;          ///< What the injector actually fired.
    /// True when the run was cut short by the node's death (the halt time
    /// the cluster kernel passes to Engine::begin): the report covers only
    /// the work finished before the halt.
    bool halted = false;

    // --- hedged reads & deadline budgets (all zero when disabled) --------
    std::uint64_t hedges_issued = 0;  ///< Duplicate demand reads issued.
    std::uint64_t hedges_won = 0;     ///< Hedge finished first (primary cancelled).
    std::uint64_t hedges_lost = 0;    ///< Primary beat the hedge, or the hedge faulted.
    std::uint64_t cancellations = 0;  ///< Loser reads/backoffs cancelled on first completion.
    /// Disk service the cancelled losers had already rendered — the price of
    /// hedging (the tail-latency win is bought with this wasted work).
    util::SimTime wasted_service;
    std::size_t peak_hedges_outstanding = 0;  ///< Watermark vs HedgeSpec::max_outstanding.
    std::uint64_t deadline_misses = 0;        ///< Queries that exhausted their budget.
    std::uint64_t retries_suppressed = 0;     ///< Retries denied by the circuit breaker.

    double final_alpha = 0.0;
    sched::GatingStats gating;
    sched::QosStats qos;              ///< Deadline accounting (QoS mode only).
    sched::PrefetchStats prefetch;    ///< Speculative-read accounting (if enabled).
    /// Speculative reads cancelled mid-service because a demand read
    /// preempted their disk channel (overlapped-I/O engine only).
    std::uint64_t prefetch_aborted = 0;
    /// Wall span of each completed job (completion of last query - arrival),
    /// in milliseconds — the quantity Fig. 8 histograms from the SQL log.
    std::vector<double> job_span_ms;

    /// Per-window time series (empty unless EngineConfig::timeline_window_s
    /// is set): how throughput, response time, the adaptive age bias and the
    /// backlog evolved over the run.
    std::vector<TimelinePoint> timeline;

    /// One-line summary for bench tables.
    std::string summary() const;

    /// Member-wise equality, nested stats and vectors included: two runs are
    /// the same run iff their reports compare equal. Tests use it to prove
    /// runs bit-identical; src/ never calls it (doubles compare exactly
    /// here, and a run that completes no query reports NaN percentiles,
    /// which equal nothing).
    bool operator==(const RunReport&) const = default;
};

/// Compute response-time aggregates from outcomes into `report`.
void fill_response_stats(const std::vector<QueryOutcome>& outcomes, RunReport& report);

}  // namespace jaws::core
