// Trajectory prefetching (paper Sec. VII, future work).
//
// "We can extrapolate the trajectory of jobs in time and space (i.e. the
// velocity of the bounding box or time step delta between consecutive
// queries) to predict which data atoms are accessed by subsequent queries.
// This can also help mask the cost of random reads by pre-fetching large
// amounts of data."
//
// The predictor watches each ordered job's completed queries, fits the
// motion of its footprint centroid and its time-step delta, and predicts the
// atom set of the *next* query: the current footprint translated by the
// observed displacement at the predicted step. The engine turns predictions
// into speculative reads appended to dispatched batches (bounded per batch),
// so a prediction that comes true converts a future cold read into a cache
// hit.
#pragma once

#include <cstdint>
#include <vector>

#include "storage/atom.h"
#include "util/slot_index.h"
#include "workload/job.h"

namespace jaws::sched {

/// Prefetcher tunables. A job is predicted once two consecutive queries
/// have completed (one centroid step), and not while its centroid jumps more
/// than a quarter of the torus per step (prefetcher.cpp).
struct PrefetchConfig {
    bool enabled = false;
    std::size_t max_atoms_per_batch = 8;   ///< Speculative reads per dispatch.
};

/// Accuracy accounting.
struct PrefetchStats {
    std::uint64_t predictions = 0;     ///< Atom predictions issued.
    std::uint64_t prefetches = 0;      ///< Speculative reads actually performed.
    std::uint64_t hits = 0;            ///< Prefetched atoms later requested.
    std::uint64_t wasted = 0;          ///< Prefetched atoms evicted untouched.
    std::uint64_t aborted = 0;         ///< Speculative reads preempted mid-service
                                       ///< by a demand read (no data cached).

    double accuracy() const noexcept {
        const std::uint64_t settled = hits + wasted;
        return settled ? static_cast<double>(hits) / static_cast<double>(settled) : 0.0;
    }

    bool operator==(const PrefetchStats&) const = default;
};

/// Predicts the next query's atoms for ordered jobs from their observed
/// spatial/temporal trajectory.
class TrajectoryPrefetcher {
  public:
    explicit TrajectoryPrefetcher(const PrefetchConfig& config, std::uint32_t atoms_per_side)
        : config_(config), atoms_per_side_(atoms_per_side) {}

    /// Observe a completed query of an ordered job. `footprint` is the
    /// query's atom list; the centroid and step delta feed the motion model.
    void observe(workload::JobId job, std::uint32_t seq, std::uint32_t timestep,
                 const std::vector<workload::AtomRequest>& footprint);

    /// A job finished (or was abandoned); drop its trajectory state.
    void forget(workload::JobId job);

    /// Predicted atoms of `job`'s next query, best first; empty if the model
    /// has too little history or the trajectory is erratic. Marks the
    /// returned atoms as issued predictions for accuracy accounting.
    std::vector<storage::AtomId> predict(workload::JobId job);

    /// The engine performed a speculative read of `atom`.
    void on_prefetched(const storage::AtomId& atom);
    /// A speculative read of `atom` was cancelled mid-service (its disk
    /// channel was preempted by a demand read); nothing was cached.
    void on_aborted(const storage::AtomId& atom);
    /// A demand request touched `atom` (was it one of ours?).
    void on_demand_access(const storage::AtomId& atom);
    /// `atom` left the cache (prefetch wasted if never touched).
    void on_evicted(const storage::AtomId& atom);

    const PrefetchStats& stats() const noexcept { return stats_; }
    const PrefetchConfig& config() const noexcept { return config_; }

  private:
    struct Trajectory {
        bool primed = false;
        std::uint32_t last_seq = 0;
        std::uint32_t last_step = 0;
        double cx = 0.0, cy = 0.0, cz = 0.0;   ///< Last footprint centroid.
        double vx = 0.0, vy = 0.0, vz = 0.0;   ///< Centroid displacement/query.
        std::int32_t step_delta = 0;           ///< Observed time-step stride.
        std::vector<std::uint64_t> last_mortons;  ///< Last footprint shape.
        bool have_velocity = false;
    };

    PrefetchConfig config_;
    std::uint32_t atoms_per_side_;
    util::SlotMap<Trajectory> trajectories_;  ///< Job id -> its motion model.
    /// Prefetched resident atom key -> whether a demand request touched it.
    util::SlotMap<bool> outstanding_;
    PrefetchStats stats_;
};

}  // namespace jaws::sched
