// The benchmark's three workloads. Each one generates its inputs from the
// seed, runs the simulator once per call to run(), and reports what that run
// cost in host wall time next to what it modeled on the virtual clock.
//
//   fig10_trace        the five Fig. 10 systems on one paper-scale,
//                      descriptor-only trace (the scheduling layers' work);
//   materialized_eval  JAWS_2 on a compute-bound materialized trace with
//                      pooled evaluation (interpolation, pool, digest fold);
//   cluster_saturated  a 4-node unified cluster at Fig. 11 saturation with a
//                      node death, heavy-tailed disks and hedged reads (the
//                      same layers under deep backlogs and cancellation).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster.h"
#include "core/config.h"
#include "workload/job.h"

namespace perfbench {

/// Wall seconds of the set-up phase and of its parts.
struct SetupTimes {
    double total_s = 0.0;
    double generate_s = 0.0;     ///< workload::generate_workload.
    double materialize_s = 0.0;  ///< workload::materialize_positions (0 when not used).
};

/// One run of a workload.
struct RunOutcome {
    double wall_s = 0.0;  ///< Host wall time of every Engine/cluster run in it.
    /// Wall seconds of each system's Engine::run (fig10_trace).
    std::vector<std::pair<std::string, double>> system_wall_s;

    // Query-part conservation: completed + degraded + lost == submitted.
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;  ///< Completed with every sub-query served.
    std::uint64_t degraded = 0;
    std::uint64_t lost = 0;
    std::uint64_t positions = 0;     ///< Positions (samples) the runs served.
    std::uint64_t interpolated = 0;  ///< Samples actually interpolated.
    std::uint64_t expected_interpolated = 0;  ///< Materialized positions submitted.

    // Virtual-time results of the headline system (JAWS_2, or the cluster).
    double model_qps = 0.0;
    double model_p50_ms = 0.0;
    double model_tail_ms = 0.0;
    int tail_percentile = 50;
    std::size_t response_samples = 0;
    double model_hit_rate = 0.0;
    double noshare_qps = 0.0;  ///< NoShare busy throughput, when the run has it.

    /// FNV-1a over every deterministic field of every report in the run:
    /// model metrics, exact counters, response samples and sample digests.
    /// Wall-clock fields are left out, so traced and untraced runs of the
    /// same inputs must agree on it.
    std::uint64_t fingerprint = 0;

    // Exact counters of the headline system.
    std::uint64_t evictions = 0;
    std::uint64_t disk_requests = 0;
    std::uint64_t sequential_requests = 0;
    std::uint64_t atom_reads = 0;
    std::uint64_t replica_reads = 0;
    std::uint64_t hedges_issued = 0;
    std::uint64_t hedges_won = 0;
    double wasted_service_s = 0.0;
    double disk_busy_s = 0.0;
    std::uint64_t requeued = 0;
    std::size_t peak_cpu_busy = 0;

    // Wall-clock counters, only meaningful on a traced run.
    std::uint64_t policy_overhead_ns = 0;  ///< Headline system's cache policy time.
    std::uint64_t headline_queries = 0;    ///< Queries (parts) the headline system completed.
    double headline_wall_s = 0.0;          ///< Wall of the headline system's run.
    std::uint64_t eval_wall_ns = 0;        ///< Real time inside evaluation.
    std::size_t eval_threads = 0;
    /// Median pending sub-queries over the run's timeline windows (traced
    /// runs record a timeline); the layer replay's backlog bound.
    std::size_t median_backlog = 0;
};

/// What the layer replay needs from a workload.
struct ReplayInput {
    const jaws::workload::Workload* trace = nullptr;
    jaws::core::EngineConfig node;       ///< Grid, cache, cost constants, disk.
    jaws::core::ClusterConfig cluster;   ///< Partitioning used for projection.
    std::size_t event_depth = 0;         ///< Events the run keeps pending.
};

class Workload {
  public:
    virtual ~Workload() = default;

    /// Generate the inputs from `seed` and construct (then discard) every
    /// engine or cluster a run uses. Repeatable: each call starts afresh.
    virtual SetupTimes setup(std::uint64_t seed) = 0;

    /// One run. `traced` switches on the opt-in wall-clock tick sources
    /// (CacheSpec::wall_clock_overhead, EvalSpec::wall_clock_timing) and the
    /// timeline; untraced runs read no wall clock inside the simulator.
    virtual RunOutcome run(bool traced) = 0;

    /// Checks made once per process beyond the per-run gate. Returns the
    /// names of the checks that failed.
    virtual std::vector<std::string> process_checks() { return {}; }

    /// JAWS_2 over NoShare busy throughput (Fig. 10's headline ratio).
    virtual double speedup_vs_noshare(const RunOutcome& first) = 0;

    /// Wall seconds of one descriptor-only run of each Fig. 10 system over
    /// this workload's trace and configuration (fig10_trace: the median over
    /// the `untraced` runs it already made).
    virtual std::vector<std::pair<std::string, double>> system_sweep(
        const std::vector<RunOutcome>& untraced) = 0;

    virtual ReplayInput replay_input() const = 0;
};

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// The workload called `name` (nullptr when there is none), evaluating on
/// `threads` pool threads where it evaluates at all.
std::unique_ptr<Workload> make_workload(const std::string& name, std::size_t threads);

/// The Fig. 10 systems, in the paper's column order.
const std::vector<std::pair<std::string, jaws::core::SchedulerSpec>>& fig10_systems();

}  // namespace perfbench
