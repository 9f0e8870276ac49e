// Synthetic workload generator calibrated to the paper's trace (Sec. VI-A).
//
// The paper evaluates JAWS on a 50 k-query (~1 k-job) week of the Turbulence
// SQL log. We cannot ship that log, so this generator synthesises a workload
// reproducing every aggregate property the paper reports:
//   * >= 95 % of queries belong to multi-query jobs;
//   * job durations are heavy-tailed with ~63 % lasting 1-30 minutes (Fig. 8);
//   * 88 % of jobs touch a single time step, ~3 % iterate over the full span,
//     and full-span jobs may terminate early, producing the downward trend in
//     access frequency (Fig. 9);
//   * ~70 % of queries hit a dozen "hot" time steps clustered at the start
//     and end of simulation time, with a secondary mid-range spike (Fig. 9);
//   * arrivals are bursty, and jobs within a burst come from the same user
//     and revisit the same regions/steps — the temporal overlap that makes
//     batching and caching pay off;
//   * ordered jobs drift their region with the actual synthetic flow, so
//     consecutive queries have the genuine data dependence of particle
//     tracking (including forward-and-backward passes over time).
// A `speedup` transform compresses inter-job gaps, reproducing Fig. 11's
// workload-saturation axis.
#pragma once

#include <cstdint>

#include "field/grid.h"
#include "field/synthetic_field.h"
#include "workload/job.h"

namespace jaws::workload {

/// Generator calibration knobs (defaults reproduce the paper's trace shape).
struct WorkloadSpec {
    /// Largest job count a trace may have. The generator holds the whole
    /// trace, ~82 MB per 1 000 jobs (~1.7 KB per query), so 100 000 jobs,
    /// 33x the 3 000-job soak, is already ~8 GB.
    static constexpr std::size_t kMaxJobs = 100'000;

    std::uint64_t seed = 7;

    std::size_t jobs = 1000;              ///< Number of jobs to generate (<= kMaxJobs).
    std::size_t users = 30;               ///< Distinct user IDs (Zipf-shared).

    // --- arrival process (bursty) ---
    double mean_burst_gap_s = 4.0;        ///< Virtual seconds between bursts.
    double mean_jobs_per_burst = 4.0;     ///< Jobs spawned per burst (>= 1).
    double mean_intra_burst_gap_s = 120.0;  ///< Stagger of jobs inside a burst.

    // --- job shape ---
    double frac_single_step = 0.88;       ///< Jobs touching one time step.
    double frac_full_span = 0.03;         ///< Jobs iterating over all steps.
    double frac_ordered_single_step = 0.35;  ///< Single-step jobs that are ordered chains.
    double ordered_chain_mu = 3.0;        ///< ln-median of single-step ordered chain length.
    double ordered_chain_sigma = 0.8;

    // --- per-query shape ---
    double positions_mu = 6.2;            ///< ln-median of positions per query (~490).
    std::uint64_t min_positions = 16;
    std::uint64_t max_positions = 20000;
    double region_radius_mu = -2.4;       ///< ln-median region radius (~0.09 of domain).
    double drift_scale = 48.0;            ///< Region drift per step, in units of flow displacement.
    double mean_think_time_s = 0.5;       ///< Gap after a predecessor's result (scripted clients).

    // --- spatial / temporal skew ---
    std::size_t hotspots = 4;             ///< Regions of interest shared by users.
    double hotspot_prob = 0.9;            ///< Job anchors on a hotspot vs uniform.

    /// Reject specs no run can honour (more than kMaxJobs jobs,
    /// min_positions above max_positions, no users, hotspot draws with no
    /// hotspot) with a std::invalid_argument naming the fields. Called by
    /// generate_workload before it allocates anything.
    void validate() const;
};

/// Generate a workload against `grid`, drawing region drift from `field`.
/// Jobs come back sorted by arrival time with globally unique query IDs.
Workload generate_workload(const WorkloadSpec& spec, const field::GridSpec& grid,
                           const field::SyntheticField& field);

/// Populate explicit positions for every query so materialised runs produce
/// real interpolated samples: each footprint entry receives exactly its
/// `positions` count of uniform draws inside that atom's box, so the engine
/// regroups them onto the same atoms and the footprint — hence the entire
/// virtual trace — is unchanged by materialisation. Draws are seeded per
/// query id, independent of job order. Existing positions are replaced.
void materialize_positions(Workload& workload, const field::GridSpec& grid,
                           std::uint64_t seed = 7);

/// Rescale inter-job arrival gaps by 1/speedup (Fig. 11's saturation knob):
/// speedup 2 makes a job submitted 2 virtual minutes after its predecessor
/// arrive after 1. Think times inside jobs are unchanged.
void apply_speedup(Workload& workload, double speedup);

/// Per-time-step query counts (Fig. 9's characterisation).
std::vector<std::uint64_t> queries_per_timestep(const Workload& workload,
                                                std::uint32_t timesteps);

}  // namespace jaws::workload
