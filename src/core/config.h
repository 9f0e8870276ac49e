// Engine configuration: one place to assemble a full JAWS deployment.
//
// An EngineConfig describes everything Fig. 7's per-node stack needs: the
// dataset geometry, the simulated disk, the cost constants of Eq. 1, the
// buffer cache (capacity + replacement policy), and which scheduler to run
// (NoShare / LifeRaft with fixed alpha / JAWS with feature switches).
// Defaults mirror the paper's experimental setup scaled to the 800 GB sample:
// 31 time steps, 4096 atoms per step, a 2 GB (256-atom) cache, k = 15 and an
// initial alpha of 0.5.
#pragma once

#include <cstdint>

#include "field/grid.h"
#include "field/synthetic_field.h"
#include "sched/jaws.h"
#include "sched/prefetcher.h"
#include "sched/workload_manager.h"
#include "storage/atom_store.h"
#include "storage/database_node.h"
#include "util/event_queue.h"

namespace jaws::util {
class ThreadPool;
}  // namespace jaws::util

namespace jaws::core {

/// Which replacement policy the buffer cache runs (Table I's rows).
enum class CachePolicy : std::uint8_t { kLru, kLruK, kSlru, kUrc, kTwoQ };

/// Which scheduler drives the node (Fig. 10's columns).
enum class SchedulerKind : std::uint8_t { kNoShare, kLifeRaft, kJaws };

/// Buffer-cache settings.
struct CacheSpec {
    CachePolicy policy = CachePolicy::kLruK;
    std::size_t capacity_atoms = 256;  ///< 2 GB of 8 MB atoms.
    unsigned lru_k = 2;

    /// Measure policy overhead in real wall-clock nanoseconds
    /// (util::wall_clock_ns) instead of deterministic virtual ticks.
    /// Benches reporting Table I's "Overhead/Qry" column turn this on;
    /// reproducible runs (tests, golden fixtures) keep it off.
    bool wall_clock_overhead = false;
};

/// Scheduler selection and parameters.
struct SchedulerSpec {
    SchedulerKind kind = SchedulerKind::kJaws;
    double liferaft_alpha = 0.0;  ///< Fixed alpha for kLifeRaft.
    sched::JawsConfig jaws;       ///< Parameters for kJaws.
};

/// Real-thread evaluation of sub-query interpolation.
///
/// The modeled CPU pool (`compute_workers` SimResource channels) stays
/// authoritative for *virtual* time; this spec only controls where the real
/// interpolation work runs. With `parallel` on and materialised data, the
/// engine dispatches each sub-query's interpolation onto a util::ThreadPool
/// when its modeled service starts and joins the result at the modeled
/// completion event — so real work overlaps exactly as the modeled channels
/// do, and results merge in deterministic virtual-event order.
struct EvalSpec {
    /// Evaluate on a thread pool instead of inline in the event handler.
    /// Only takes effect when the run materialises data; descriptor-only
    /// runs never spawn threads. A pool the engine owns has
    /// `compute_workers` threads, matching real threads to modeled channels.
    bool parallel = true;

    /// Externally owned pool to share across engines (the cluster facade
    /// points every node engine here). Non-null wins over an owned pool;
    /// the caller keeps it alive for the engine's lifetime.
    util::ThreadPool* pool = nullptr;

    /// Measure real evaluation wall time (util::wall_clock_ns) into
    /// RunReport::eval_wall_ns. Bench-only, like CacheSpec's equivalent:
    /// deterministic runs keep it off.
    bool wall_clock_timing = false;
};

/// Total read attempts per demand miss. Failed demand reads (injected
/// transient errors) retry with bounded exponential backoff (5 ms before the
/// first retry, doubling per further retry, capped at 1 s; constants in
/// core/engine.cpp), every delay charged to the virtual clock (so QoS
/// deadline math sees the real degraded timeline). An atom whose demand read
/// exhausts all attempts marks the affected sub-queries failed; their
/// queries complete *degraded* instead of crashing the run.
inline constexpr std::size_t kMaxReadAttempts = 4;

/// Retry policy beyond the fixed attempt bound (kMaxReadAttempts).
struct RetrySpec {
    /// Circuit breaker: total retries the whole run may spend (0 = unlimited).
    /// Once cumulative retries reach the budget the circuit opens and further
    /// transient failures fail fast (their sub-queries abandoned, queries
    /// completing degraded) instead of piling onto the backoff queue — the
    /// retry-storm guard a production cluster runs with.
    std::size_t total_retry_budget = 0;
};

/// Hedged demand reads (tail-latency robustness, following the
/// hedged-request pattern of Dean & Barroso's "The Tail at Scale"): when a
/// primary demand read sits past a trigger delay, the engine issues a
/// duplicate read for the same atom on another disk channel (a replica
/// spindle of the RAID set) and the first completion wins — the loser is
/// cancelled mid-service and its unrendered tail refunded. The trigger is
/// adaptive: `trigger_ewma_multiplier` times the EWMA of recent successful
/// demand-read service times (the T_b estimate until the EWMA is primed).
/// Disabled by default; a disabled spec schedules *no* events and is
/// bit-identical to a build without the feature (the golden-equivalence
/// harness pins this).
struct HedgeSpec {
    bool enabled = false;
    double trigger_ewma_multiplier = 3.0;  ///< Trigger = mult * EWMA(read ms).

    /// Engine-wide cap on simultaneously outstanding hedge reads (a hedge
    /// storm must never displace primary demand traffic).
    std::size_t max_outstanding = 4;

    /// Hedges any single query may consume over its lifetime.
    std::size_t budget_per_query = 2;
};

/// Full per-node configuration.
struct EngineConfig {
    field::GridSpec grid;
    field::FieldSpec field;
    storage::DiskSpec disk;

    /// Concurrent disk service channels (the RAID stripe set's command
    /// parallelism). The event kernel pipelines up to `io_depth` batch items
    /// through the disk at once, so demand reads overlap batch evaluation and
    /// each other. 1 reproduces the historical strictly-serial engine
    /// bit-for-bit (read, then evaluate, then next read).
    std::size_t io_depth = 1;

    /// Parallel batch-evaluation workers (modeled CPU pool). Sub-query
    /// evaluation of distinct batch items proceeds concurrently on up to this
    /// many servers. 1 reproduces the historical serial semantics.
    std::size_t compute_workers = 1;

    /// Real-thread dispatch of sub-query evaluation (see EvalSpec).
    EvalSpec eval;
    storage::CostModel compute;        ///< Actual per-position cost charged (T_m).
    sched::CostConstants estimates;    ///< T_b/T_m estimates used by Eq. 1.
    CacheSpec cache;
    SchedulerSpec scheduler;
    /// Queries per run: the engine closes a run after every `run_length`
    /// completions (the alpha controller's Sec. V-A runs and SLRU's
    /// counter resets); 0 disables runs.
    std::size_t run_length = 200;
    bool materialize_data = false;     ///< Synthesize voxel payloads (examples only).
    sched::PrefetchConfig prefetch;    ///< Trajectory prefetching (Sec. VII).

    /// Virtual seconds per timeline sample in RunReport::timeline; 0 disables
    /// time-series collection.
    double timeline_window_s = 0.0;

    /// Deterministic fault injection (default: fault-free; zero-cost when
    /// disabled). Node-down events inside are consumed by TurbulenceCluster.
    storage::FaultSpec faults;

    /// Run-wide retry budget for transiently failed demand reads (each read
    /// is bounded by kMaxReadAttempts).
    RetrySpec retry;

    /// Hedged duplicate demand reads against stragglers (default: off).
    HedgeSpec hedge;

    /// Per-query deadline budget in virtual ms, measured from the query
    /// becoming visible (0 = unlimited). A query over budget stops retrying:
    /// at the next retry boundary its remaining sub-queries on the failed
    /// atom are abandoned and it completes *degraded* with the samples
    /// evaluated so far — graceful degradation instead of an unbounded
    /// backoff loop (RunReport::deadline_misses counts these).
    double deadline_budget_ms = 0.0;

    /// Same-tick tie-break perturbation for the schedule-perturbation
    /// determinism checker (tests/perturbation_test.cpp). The default is the
    /// identity; any perturbation of the commutative priority classes must
    /// leave every report digest bit-identical. Applied to the engine-owned
    /// queue in standalone runs and to the cluster's shared queue in unified
    /// runs.
    util::TiePerturbation tie_perturbation;

    /// Reject nonsensical configurations (zero-sized grid or cache,
    /// atom_side not dividing voxels_per_side, negative costs, out-of-range
    /// probabilities) with a descriptive std::invalid_argument. Called at
    /// Engine construction.
    void validate() const;
};

}  // namespace jaws::core
