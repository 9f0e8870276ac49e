#include "sched/prefetcher.h"

#include <algorithm>
#include <cmath>

#include "util/morton.h"

namespace jaws::sched {

namespace {

/// Centroid displacement per step (torus units) above which a job counts as
/// erratic and is not predicted.
constexpr double kMaxCentroidJump = 0.25;

/// Shortest signed displacement from a to b on a periodic axis of length n.
double torus_delta(double a, double b, double n) {
    double d = b - a;
    if (d > n / 2) d -= n;
    if (d < -n / 2) d += n;
    return d;
}

}  // namespace

void TrajectoryPrefetcher::observe(workload::JobId job, std::uint32_t seq,
                                   std::uint32_t timestep,
                                   const std::vector<workload::AtomRequest>& footprint) {
    if (footprint.empty()) return;
    Trajectory& t = trajectories_.get_or_insert(job);

    // Footprint centroid in atom coordinates.
    double cx = 0.0, cy = 0.0, cz = 0.0;
    std::vector<std::uint64_t> mortons;
    mortons.reserve(footprint.size());
    for (const auto& req : footprint) {
        const util::Coord3 c = util::morton_decode(req.atom.morton);
        cx += c.x;
        cy += c.y;
        cz += c.z;
        mortons.push_back(req.atom.morton);
    }
    const auto n = static_cast<double>(footprint.size());
    cx /= n;
    cy /= n;
    cz /= n;

    if (t.primed && seq == t.last_seq + 1) {
        const double aps = static_cast<double>(atoms_per_side_);
        t.vx = torus_delta(t.cx, cx, aps);
        t.vy = torus_delta(t.cy, cy, aps);
        t.vz = torus_delta(t.cz, cz, aps);
        t.step_delta = static_cast<std::int32_t>(timestep) -
                       static_cast<std::int32_t>(t.last_step);
        t.have_velocity = true;
    } else {
        t.have_velocity = false;
    }
    t.primed = true;
    t.last_seq = seq;
    t.last_step = timestep;
    t.cx = cx;
    t.cy = cy;
    t.cz = cz;
    t.last_mortons = std::move(mortons);
}

void TrajectoryPrefetcher::forget(workload::JobId job) { trajectories_.erase(job); }

std::vector<storage::AtomId> TrajectoryPrefetcher::predict(workload::JobId job) {
    const auto s = trajectories_.find(job);
    if (s == util::SlotIndex::kNone) return {};
    const Trajectory& t = trajectories_[s];
    // A velocity needs two consecutive completed queries: that is all the
    // history a prediction needs.
    if (!t.have_velocity) return {};

    // Erratic jobs (footprint jumps bigger than the cap) are not predictable.
    const double jump = std::sqrt(t.vx * t.vx + t.vy * t.vy + t.vz * t.vz) /
                        static_cast<double>(atoms_per_side_);
    if (jump > kMaxCentroidJump) return {};

    const std::int64_t next_step =
        static_cast<std::int64_t>(t.last_step) + t.step_delta;
    if (next_step < 0) return {};

    // Translate the last footprint by the observed displacement (rounded to
    // atoms) at the predicted time step.
    const auto round_delta = [](double v) {
        return static_cast<std::int64_t>(std::llround(v));
    };
    const std::int64_t dx = round_delta(t.vx);
    const std::int64_t dy = round_delta(t.vy);
    const std::int64_t dz = round_delta(t.vz);

    std::vector<storage::AtomId> out;
    out.reserve(t.last_mortons.size());
    const auto wrap = [&](std::int64_t c) {
        const auto m = static_cast<std::int64_t>(atoms_per_side_);
        return static_cast<std::uint32_t>(((c % m) + m) % m);
    };
    for (const std::uint64_t code : t.last_mortons) {
        const util::Coord3 c = util::morton_decode(code);
        const std::uint64_t predicted =
            util::morton_encode(wrap(static_cast<std::int64_t>(c.x) + dx),
                                wrap(static_cast<std::int64_t>(c.y) + dy),
                                wrap(static_cast<std::int64_t>(c.z) + dz));
        out.push_back(storage::AtomId{static_cast<std::uint32_t>(next_step), predicted});
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    stats_.predictions += out.size();
    return out;
}

void TrajectoryPrefetcher::on_prefetched(const storage::AtomId& atom) {
    ++stats_.prefetches;
    outstanding_.get_or_insert(atom.key().value()) = false;  // not yet touched by demand
}

void TrajectoryPrefetcher::on_aborted(const storage::AtomId& atom) {
    (void)atom;  // nothing entered outstanding_: the read never completed
    ++stats_.aborted;
}

void TrajectoryPrefetcher::on_demand_access(const storage::AtomId& atom) {
    const auto s = outstanding_.find(atom.key().value());
    if (s == util::SlotIndex::kNone || outstanding_[s]) return;
    outstanding_[s] = true;
    ++stats_.hits;
}

void TrajectoryPrefetcher::on_evicted(const storage::AtomId& atom) {
    const auto s = outstanding_.find(atom.key().value());
    if (s == util::SlotIndex::kNone) return;
    if (!outstanding_[s]) ++stats_.wasted;
    outstanding_.erase(atom.key().value());
}

}  // namespace jaws::sched
