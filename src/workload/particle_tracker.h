// Particle-tracking jobs (the paper's canonical ordered workflow).
//
// "To track the movement of particles over time, the positions of particles
// at the next time step depend on the state of the particles computed from
// the previous time step" (Sec. IV). This module builds ordered jobs whose
// queries carry *explicit* particle positions: a cloud is seeded in a ball,
// and each subsequent query's positions are obtained by advecting the cloud
// through the synthetic flow — a genuine, result-driven data dependency. Jobs
// built here drive the integration tests (the particle_tracking example
// advects its own cloud); the bulk workload generator uses a cheaper drift
// approximation of the same process.
#pragma once

#include <cstdint>
#include <vector>

#include "field/grid.h"
#include "field/synthetic_field.h"
#include "workload/job.h"

namespace jaws::workload {

/// Parameters of one tracking experiment.
struct ParticleTrackingSpec {
    std::uint64_t seed = 11;
    std::size_t particles = 512;       ///< Cloud size.
    field::Vec3 seed_center{0.5, 0.5, 0.5};
    double seed_radius = 0.05;         ///< Seeding ball radius (torus units).
    std::uint32_t start_step = 0;      ///< First time step queried.
    std::uint32_t steps = 8;           ///< Number of queries (time steps visited).
    int direction = 1;                 ///< +1 forward, -1 backward in time.
    field::InterpOrder order = field::InterpOrder::kLag4;
};

/// Seed a particle cloud uniformly in the spec's ball.
std::vector<field::Vec3> seed_particles(const ParticleTrackingSpec& spec);

/// Advect every particle one step of `dt` through `field` at time `t` (RK2).
std::vector<field::Vec3> advect_cloud(const field::SyntheticField& field,
                                      const std::vector<field::Vec3>& cloud, double t,
                                      double dt);

/// Build a fully materialised ordered job: queries carry explicit positions,
/// precomputed by advecting the cloud with the analytic field (the ground
/// truth a live experiment would converge to). Each query stores its step's
/// cloud grouped by atom (group_by_atom); the cloud itself is advected in
/// particle order. `arrival` stamps the job.
Job make_particle_tracking_job(const ParticleTrackingSpec& spec, const field::GridSpec& grid,
                               const field::SyntheticField& field, JobId id, UserId user,
                               util::SimTime arrival);

}  // namespace jaws::workload
