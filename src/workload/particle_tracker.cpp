#include "workload/particle_tracker.h"

#include <cassert>

#include "util/rng.h"

namespace jaws::workload {

std::vector<field::Vec3> seed_particles(const ParticleTrackingSpec& spec) {
    util::Rng rng(spec.seed);
    std::vector<field::Vec3> cloud;
    cloud.reserve(spec.particles);
    while (cloud.size() < spec.particles) {
        // Rejection-sample the unit ball, then scale/translate onto the torus.
        const double x = rng.uniform(-1.0, 1.0);
        const double y = rng.uniform(-1.0, 1.0);
        const double z = rng.uniform(-1.0, 1.0);
        if (x * x + y * y + z * z > 1.0) continue;
        cloud.push_back(field::Vec3{field::wrap01(spec.seed_center.x + x * spec.seed_radius),
                                    field::wrap01(spec.seed_center.y + y * spec.seed_radius),
                                    field::wrap01(spec.seed_center.z + z * spec.seed_radius)});
    }
    return cloud;
}

std::vector<field::Vec3> advect_cloud(const field::SyntheticField& field,
                                      const std::vector<field::Vec3>& cloud, double t,
                                      double dt) {
    std::vector<field::Vec3> next;
    next.reserve(cloud.size());
    for (const auto& p : cloud) next.push_back(field::advect_rk2(field, p, t, dt));
    return next;
}

Job make_particle_tracking_job(const ParticleTrackingSpec& spec, const field::GridSpec& grid,
                               const field::SyntheticField& field, JobId id, UserId user,
                               util::SimTime arrival) {
    assert(spec.steps >= 1);
    Job job;
    job.id = id;
    job.user = user;
    job.type = JobType::kOrdered;
    job.arrival = arrival;

    std::vector<field::Vec3> cloud = seed_particles(spec);
    std::uint32_t step = spec.start_step;
    for (std::uint32_t i = 0; i < spec.steps; ++i) {
        Query q;
        q.id = 0;  // assigned by the caller when merged into a workload
        q.job = id;
        q.seq_in_job = i;
        q.user = user;
        q.timestep = step;
        q.kind = storage::ComputeKind::kVelocity;
        q.order = spec.order;
        q.think_time = i == 0 ? util::SimTime::zero() : util::SimTime::from_seconds(1.0);
        AtomGrouping grouped = group_by_atom(grid, step, cloud);
        q.footprint = std::move(grouped.footprint);
        q.positions = std::move(grouped.positions);
        job.queries.push_back(std::move(q));

        if (i + 1 == spec.steps) break;
        const double dt = grid.dt * spec.direction;
        cloud = advect_cloud(field, cloud, grid.sim_time(step), dt);
        const std::int64_t next =
            static_cast<std::int64_t>(step) + spec.direction;
        assert(next >= 0 && next < static_cast<std::int64_t>(grid.timesteps));
        step = static_cast<std::uint32_t>(next);
    }
    return job;
}

}  // namespace jaws::workload
