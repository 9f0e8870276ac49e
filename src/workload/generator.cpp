#include "workload/generator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/morton.h"
#include "util/rng.h"

namespace jaws::workload {

namespace {

using field::Vec3;

// Calibration constants of the paper's trace shape (Sec. VI-A, Figs. 8-9)
// that no caller varies; WorkloadSpec holds the knobs that callers set.

// --- job shape ---
constexpr double kFullSpanSurvival = 0.97;  ///< Per-step survival of full-span jobs.
constexpr double kMeanPasses = 1.6;         ///< Forward/backward passes of span jobs.
constexpr double kBatchedQueriesMu = 3.9;   ///< ln-median of batched job query count (~50).
constexpr double kBatchedQueriesSigma = 0.9;

// --- per-query shape ---
constexpr double kPositionsSigma = 0.9;     ///< ln-spread of positions per query.
constexpr double kRegionRadiusSigma = 0.4;  ///< ln-spread of the region radius.

// --- temporal skew (Fig. 9) ---
constexpr double kHotStepWeight = 3.2;      ///< Relative weight of the hot end-steps.
constexpr std::size_t kHotStepsPerEnd = 6;  ///< Hot steps at each end of the range.
constexpr double kSpikeWeight = 4.0;        ///< Mid-range spike relative weight.
constexpr double kTrendSlope = 0.5;         ///< Downward trend of the baseline weight.

/// Weight of each time step for job placement, shaped per Fig. 9: hot
/// clusters at both ends, a mid-range spike (~0.25-0.4 of the range), and a
/// declining baseline.
std::vector<double> timestep_weights(std::uint32_t timesteps) {
    std::vector<double> w(timesteps, 1.0);
    for (std::uint32_t t = 0; t < timesteps; ++t) {
        const double frac = timesteps > 1 ? static_cast<double>(t) / (timesteps - 1) : 0.0;
        w[t] = 1.0 - kTrendSlope * frac;  // downward trend
        if (t < kHotStepsPerEnd || t + kHotStepsPerEnd >= timesteps) w[t] += kHotStepWeight;
        if (frac >= 0.28 && frac <= 0.42) w[t] += kSpikeWeight;  // mid spike
    }
    return w;
}

std::uint32_t sample_weighted(util::Rng& rng, const std::vector<double>& weights) {
    double total = 0.0;
    for (const double w : weights) total += w;
    double target = rng.uniform() * total;
    for (std::uint32_t i = 0; i < weights.size(); ++i) {
        target -= weights[i];
        if (target <= 0.0) return i;
    }
    return static_cast<std::uint32_t>(weights.size() - 1);
}

/// Compute the atom footprint of a spherical position cloud: atoms covering
/// the ball around `center` with radius `radius`, positions apportioned by a
/// Gaussian of the atom-centre distance. Footprint is Morton-sorted.
std::vector<AtomRequest> make_footprint(const field::GridSpec& grid, std::uint32_t timestep,
                                        const Vec3& center, double radius,
                                        std::uint64_t total_positions) {
    const std::uint32_t aps = grid.atoms_per_side();
    const double atom_extent = 1.0 / static_cast<double>(aps);
    // Atom-coordinate box covering the ball (with torus wrap).
    const auto lo_atom = [&](double c) {
        return static_cast<std::int64_t>(std::floor((c - radius) / atom_extent));
    };
    const auto hi_atom = [&](double c) {
        return static_cast<std::int64_t>(std::floor((c + radius) / atom_extent));
    };
    const double sigma = std::max(radius * 0.5, 1e-6);

    struct Weighted {
        std::uint64_t code;
        double weight;
    };
    std::vector<Weighted> atoms;
    for (std::int64_t az = lo_atom(center.z); az <= hi_atom(center.z); ++az) {
        for (std::int64_t ay = lo_atom(center.y); ay <= hi_atom(center.y); ++ay) {
            for (std::int64_t ax = lo_atom(center.x); ax <= hi_atom(center.x); ++ax) {
                // Distance from the cloud centre to this atom's centre,
                // shortest-image on the torus.
                const auto dist1 = [&](std::int64_t a, double c) {
                    const double ac = (static_cast<double>(a) + 0.5) * atom_extent;
                    double d = std::fabs(ac - c);
                    return std::min(d, 1.0 - d);
                };
                const double dx = dist1(ax, center.x), dy = dist1(ay, center.y),
                             dz = dist1(az, center.z);
                const double d2 = dx * dx + dy * dy + dz * dz;
                // Skip atoms well outside the ball (their weight is ~0).
                const double reach = radius + 0.87 * atom_extent;  // half diagonal
                if (d2 > reach * reach) continue;
                const double weight = std::exp(-d2 / (2.0 * sigma * sigma));
                const auto wrap = [&](std::int64_t a) {
                    const auto m = static_cast<std::int64_t>(aps);
                    return static_cast<std::uint32_t>(((a % m) + m) % m);
                };
                atoms.push_back({util::morton_encode(wrap(ax), wrap(ay), wrap(az)), weight});
            }
        }
    }
    if (atoms.empty()) {
        atoms.push_back({grid.atom_morton_of(center), 1.0});
    }
    // Wrapping can alias distinct box cells onto the same atom; merge them.
    std::sort(atoms.begin(), atoms.end(),
              [](const Weighted& a, const Weighted& b) { return a.code < b.code; });
    std::vector<Weighted> merged;
    for (const auto& a : atoms) {
        if (!merged.empty() && merged.back().code == a.code)
            merged.back().weight += a.weight;
        else
            merged.push_back(a);
    }

    double total_weight = 0.0;
    for (const auto& a : merged) total_weight += a.weight;
    std::vector<AtomRequest> out;
    out.reserve(merged.size());
    std::uint64_t assigned = 0;
    for (const auto& a : merged) {
        auto n = static_cast<std::uint64_t>(
            std::llround(static_cast<double>(total_positions) * a.weight / total_weight));
        if (n == 0) continue;
        n = std::min(n, total_positions - assigned);
        if (n == 0) break;
        out.push_back(AtomRequest{storage::AtomId{timestep, a.code}, n});
        assigned += n;
    }
    if (out.empty()) {
        out.push_back(AtomRequest{storage::AtomId{timestep, merged.front().code},
                                  std::max<std::uint64_t>(1, total_positions)});
        assigned = out.front().positions;
    } else if (assigned < total_positions) {
        out.front().positions += total_positions - assigned;  // rounding remainder
    }
    return out;
}

/// State shared while building one job's query sequence.
struct JobBuilder {
    const WorkloadSpec& spec;
    const field::GridSpec& grid;
    const field::SyntheticField& field;
    util::Rng& rng;
    QueryId& next_query_id;

    std::uint64_t positions_per_query() const {
        const double draw = rng.lognormal(spec.positions_mu, kPositionsSigma);
        const auto n = static_cast<std::uint64_t>(draw);
        return std::clamp(n, spec.min_positions, spec.max_positions);
    }

    Query make_query(Job& job, std::uint32_t timestep, const Vec3& center, double radius,
                     storage::ComputeKind kind, util::SimTime think) {
        Query q;
        q.id = next_query_id++;
        q.job = job.id;
        q.seq_in_job = static_cast<std::uint32_t>(job.queries.size());
        q.user = job.user;
        q.timestep = timestep;
        q.kind = kind;
        q.order = rng.bernoulli(0.2) ? field::InterpOrder::kLag8 : field::InterpOrder::kLag4;
        q.think_time = think;
        q.footprint = make_footprint(grid, timestep, center, radius, positions_per_query());
        return q;
    }

    /// Drift the region centre with the flow at `timestep`, amplified by
    /// drift_scale so footprints move on atom scales.
    Vec3 drift(const Vec3& center, std::uint32_t timestep) const {
        const Vec3 v = field.velocity(center, grid.sim_time(timestep));
        const double dt = spec.drift_scale * grid.dt;
        return Vec3{field::wrap01(center.x + dt * v.x), field::wrap01(center.y + dt * v.y),
                    field::wrap01(center.z + dt * v.z)};
    }

    util::SimTime think() const {
        return util::SimTime::from_seconds(rng.exponential(spec.mean_think_time_s));
    }
};

}  // namespace

void WorkloadSpec::validate() const {
    const auto fail = [](const std::string& msg) {
        throw std::invalid_argument("WorkloadSpec: " + msg);
    };
    if (jobs > kMaxJobs)
        fail("jobs " + std::to_string(jobs) + " exceeds kMaxJobs " + std::to_string(kMaxJobs));
    if (min_positions > max_positions)
        fail("min_positions " + std::to_string(min_positions) + " exceeds max_positions " +
             std::to_string(max_positions));
    if (max_positions > kMaxAtomPositions)
        fail("max_positions " + std::to_string(max_positions) + " exceeds kMaxAtomPositions " +
             std::to_string(kMaxAtomPositions));
    if (users == 0) fail("users must be positive");
    if (hotspots == 0 && hotspot_prob > 0.0)
        fail("hotspot_prob " + std::to_string(hotspot_prob) + " needs hotspots > 0");
}

Workload generate_workload(const WorkloadSpec& spec, const field::GridSpec& grid,
                           const field::SyntheticField& field) {
    spec.validate();
    util::Rng rng(spec.seed);
    const std::uint32_t timesteps = grid.timesteps;
    const std::vector<double> step_weights = timestep_weights(timesteps);

    // Shared regions of interest (turbulent structures users keep revisiting).
    std::vector<Vec3> hotspots;
    hotspots.reserve(spec.hotspots);
    for (std::size_t i = 0; i < spec.hotspots; ++i)
        hotspots.push_back(Vec3{rng.uniform(), rng.uniform(), rng.uniform()});

    Workload out;
    out.jobs.reserve(spec.jobs);
    QueryId next_query_id = 1;
    JobId next_job_id = 1;
    double now_s = 0.0;

    while (out.jobs.size() < spec.jobs) {
        // --- one burst: same user, same neighbourhood of interest ---
        now_s += rng.exponential(spec.mean_burst_gap_s);
        const auto burst_user = static_cast<UserId>(rng.zipf(spec.users, 1.1));
        const std::size_t burst_jobs = std::min(
            spec.jobs - out.jobs.size(), 1 + static_cast<std::size_t>(rng.poisson(
                                                 std::max(0.0, spec.mean_jobs_per_burst - 1))));
        const std::uint32_t burst_step = sample_weighted(rng, step_weights);
        const bool burst_on_hotspot = rng.bernoulli(spec.hotspot_prob);
        const Vec3 burst_center =
            burst_on_hotspot ? hotspots[rng.uniform_u64(hotspots.size())]
                             : Vec3{rng.uniform(), rng.uniform(), rng.uniform()};
        // A burst is one user's campaign: the same experiment re-run with
        // jittered inputs, so every job of the burst shares its shape. This
        // is what makes cross-job alignment (gating) worthwhile.
        const double burst_shape = rng.uniform();
        const bool burst_ordered_single = rng.bernoulli(spec.frac_ordered_single_step);
        const auto burst_span = static_cast<std::uint32_t>(std::min<std::int64_t>(
            timesteps, 2 + static_cast<std::int64_t>(rng.uniform_u64(9))));
        const auto burst_chain = std::max<std::uint64_t>(
            2, static_cast<std::uint64_t>(
                   rng.lognormal(spec.ordered_chain_mu, spec.ordered_chain_sigma)));

        double job_time_s = now_s;
        for (std::size_t b = 0; b < burst_jobs; ++b) {
            if (b > 0) job_time_s += rng.exponential(spec.mean_intra_burst_gap_s);

            Job job;
            job.id = next_job_id++;
            job.user = burst_user;
            job.arrival = util::SimTime::from_seconds(job_time_s);

            // Jitter the burst anchor a little per job so concurrent jobs
            // overlap heavily but not identically.
            const double radius = rng.lognormal(spec.region_radius_mu, kRegionRadiusSigma);
            Vec3 center{field::wrap01(burst_center.x + rng.normal(0.0, radius * 0.4)),
                        field::wrap01(burst_center.y + rng.normal(0.0, radius * 0.4)),
                        field::wrap01(burst_center.z + rng.normal(0.0, radius * 0.4))};

            JobBuilder builder{spec, grid, field, rng, next_query_id};
            const double shape = burst_shape;
            if (shape < spec.frac_full_span) {
                // Full-span ordered job: iterate over all steps, possibly in
                // several forward/backward passes, with per-step early
                // termination (the paper's downward access trend).
                job.type = JobType::kOrdered;
                const auto passes = std::max<std::uint64_t>(
                    1, rng.poisson(std::max(0.0, kMeanPasses - 1)) + 1);
                std::uint32_t step = 0;
                int direction = 1;
                bool alive = true;
                for (std::uint64_t pass = 0; pass < passes && alive; ++pass) {
                    for (std::uint32_t i = 0; i < timesteps && alive; ++i) {
                        job.queries.push_back(builder.make_query(
                            job, step, center, radius, storage::ComputeKind::kVelocity,
                            job.queries.empty() ? util::SimTime::zero() : builder.think()));
                        center = builder.drift(center, step);
                        if (!rng.bernoulli(kFullSpanSurvival)) alive = false;
                        if (i + 1 < timesteps)
                            step = static_cast<std::uint32_t>(
                                static_cast<std::int64_t>(step) + direction);
                    }
                    direction = -direction;  // track backwards on the next pass
                }
            } else if (shape < spec.frac_full_span + (1.0 - spec.frac_single_step -
                                                      spec.frac_full_span)) {
                // Mid-range ordered job over a contiguous handful of steps.
                job.type = JobType::kOrdered;
                const std::uint32_t span = burst_span;
                std::uint32_t step = std::min(burst_step, timesteps - span);
                for (std::uint32_t i = 0; i < span; ++i) {
                    job.queries.push_back(builder.make_query(
                        job, step + i, center, radius, storage::ComputeKind::kVelocity,
                        job.queries.empty() ? util::SimTime::zero() : builder.think()));
                    center = builder.drift(center, step + i);
                }
            } else if (burst_ordered_single) {
                // Single-step ordered chain: iterative refinement where each
                // query's region comes from the previous result.
                job.type = JobType::kOrdered;
                const std::uint64_t n = burst_chain;
                for (std::uint64_t i = 0; i < n; ++i) {
                    job.queries.push_back(builder.make_query(
                        job, burst_step, center, radius, storage::ComputeKind::kVelocity,
                        job.queries.empty() ? util::SimTime::zero() : builder.think()));
                    center = builder.drift(center, burst_step);
                }
            } else {
                // Single-step batched job: independent statistics queries over
                // (near-)static regions, all submitted together.
                job.type = JobType::kBatched;
                const auto n = std::max<std::uint64_t>(
                    1, static_cast<std::uint64_t>(
                           rng.lognormal(kBatchedQueriesMu, kBatchedQueriesSigma)));
                for (std::uint64_t i = 0; i < n; ++i) {
                    const Vec3 jitter{field::wrap01(center.x + rng.normal(0.0, radius * 0.3)),
                                      field::wrap01(center.y + rng.normal(0.0, radius * 0.3)),
                                      field::wrap01(center.z + rng.normal(0.0, radius * 0.3))};
                    job.queries.push_back(builder.make_query(
                        job, burst_step, jitter, radius, storage::ComputeKind::kFlowStats,
                        util::SimTime::from_seconds(rng.uniform(0.0, 1.0))));
                }
            }
            out.jobs.push_back(std::move(job));
        }
        // Bursts overlap: intra-burst staggers do not advance the global
        // clock, only the inter-burst gap does.
    }

    std::sort(out.jobs.begin(), out.jobs.end(),
              [](const Job& a, const Job& b) { return a.arrival < b.arrival; });
    return out;
}

void materialize_positions(Workload& workload, const field::GridSpec& grid,
                           std::uint64_t seed) {
    const double atom_extent = 1.0 / static_cast<double>(grid.atoms_per_side());
    for (Job& job : workload.jobs) {
        for (Query& q : job.queries) {
            // Per-query stream: materialisation is stable under job
            // reordering, partitioning and re-runs.
            util::Rng rng(seed ^ (q.id * 0x9E3779B97F4A7C15ULL));
            // Entry by entry, each point inside its entry's atom: Query's
            // layout.
            q.positions.clear();
            q.positions.reserve(q.total_positions());
            for (const AtomRequest& req : q.footprint) {
                const util::Coord3 c = util::morton_decode(req.atom.morton);
                for (std::uint64_t i = 0; i < req.positions; ++i)
                    q.positions.push_back(Vec3{
                        (static_cast<double>(c.x) + rng.uniform()) * atom_extent,
                        (static_cast<double>(c.y) + rng.uniform()) * atom_extent,
                        (static_cast<double>(c.z) + rng.uniform()) * atom_extent});
            }
        }
    }
}

void apply_speedup(Workload& workload, double speedup) {
    if (!(speedup > 0.0))
        throw std::invalid_argument("apply_speedup: speedup must be positive, got " +
                                    std::to_string(speedup));
    if (workload.jobs.empty()) return;
    util::SimTime prev_orig = workload.jobs.front().arrival;
    util::SimTime prev_new = workload.jobs.front().arrival;
    for (std::size_t i = 1; i < workload.jobs.size(); ++i) {
        const util::SimTime orig = workload.jobs[i].arrival;
        const auto gap = static_cast<double>((orig - prev_orig).raw_micros()) / speedup;
        prev_new = prev_new + util::SimTime::from_micros(static_cast<std::int64_t>(gap));
        prev_orig = orig;
        workload.jobs[i].arrival = prev_new;
    }
}

std::vector<std::uint64_t> queries_per_timestep(const Workload& workload,
                                                std::uint32_t timesteps) {
    std::vector<std::uint64_t> counts(timesteps, 0);
    for (const auto& job : workload.jobs)
        for (const auto& q : job.queries)
            if (q.timestep < timesteps) ++counts[q.timestep];
    return counts;
}

}  // namespace jaws::workload
