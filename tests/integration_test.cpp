// Cross-module integration tests: the full pipeline from workload generation
// through scheduling, caching and execution, plus particle tracking with real
// data through the batch engine.
#include <gtest/gtest.h>

#include <cmath>

#include "core/direct_executor.h"
#include "core/engine.h"
#include "workload/generator.h"
#include "workload/particle_tracker.h"

namespace jaws {
namespace {

core::EngineConfig small_config() {
    core::EngineConfig c;
    c.grid.voxels_per_side = 256;
    c.grid.atom_side = 32;
    c.grid.ghost = 4;
    c.grid.timesteps = 8;
    c.field.modes = 6;
    c.field.max_wavenumber = 3.0;
    c.cache.capacity_atoms = 32;
    return c;
}

TEST(Integration, FiveSystemOrderingOnSharedTrace) {
    // The headline sanity check: on a contended trace, every batch scheduler
    // reads less than NoShare, and JAWS_2 never reads more than JAWS_1.
    core::EngineConfig base = small_config();
    workload::WorkloadSpec spec;
    spec.jobs = 70;
    spec.seed = 2;
    const field::SyntheticField field(base.field);
    const workload::Workload w = workload::generate_workload(spec, base.grid, field);

    const auto run = [&](core::SchedulerSpec s) {
        core::EngineConfig config = base;
        config.scheduler = s;
        core::Engine engine(config);
        return engine.run(w);
    };
    core::SchedulerSpec noshare;
    noshare.kind = core::SchedulerKind::kNoShare;
    core::SchedulerSpec liferaft;
    liferaft.kind = core::SchedulerKind::kLifeRaft;
    core::SchedulerSpec jaws1;
    jaws1.kind = core::SchedulerKind::kJaws;
    jaws1.jaws.job_aware = false;
    core::SchedulerSpec jaws2;
    jaws2.kind = core::SchedulerKind::kJaws;

    const auto rn = run(noshare);
    const auto rl = run(liferaft);
    const auto r1 = run(jaws1);
    const auto r2 = run(jaws2);
    EXPECT_LT(rl.atom_reads, rn.atom_reads);
    EXPECT_LT(r1.atom_reads, rn.atom_reads);
    EXPECT_LT(r2.atom_reads, rn.atom_reads);
    EXPECT_LE(r2.atom_reads, r1.atom_reads + r1.atom_reads / 20);
    EXPECT_EQ(r2.gating.forced_promotions, 0u);
    // All four executed exactly the same logical work.
    EXPECT_EQ(rn.positions, r2.positions);
    EXPECT_EQ(rn.queries, r2.queries);
}

TEST(Integration, ParticleTrackingThroughBatchEngineWithRealData) {
    // Build an ordered tracking job with explicit positions, run it through
    // the batch engine with materialised data, and verify the whole pipeline
    // completes with the job's dependencies respected.
    core::EngineConfig config = small_config();
    config.materialize_data = true;
    config.scheduler.kind = core::SchedulerKind::kJaws;
    const field::SyntheticField field(config.field);

    workload::ParticleTrackingSpec pspec;
    pspec.particles = 64;
    pspec.steps = 5;
    pspec.seed_center = {0.4, 0.5, 0.6};
    workload::Job job = workload::make_particle_tracking_job(pspec, config.grid, field, 1, 1,
                                                             util::SimTime::zero());
    workload::QueryId next_id = 1;
    for (auto& q : job.queries) q.id = next_id++;

    workload::Workload w;
    w.jobs.push_back(std::move(job));
    core::Engine engine(config);
    const core::RunReport report = engine.run(w);
    EXPECT_EQ(report.queries, 5u);
    // Sequential completion of the chain.
    for (std::size_t i = 1; i < engine.outcomes().size(); ++i)
        EXPECT_GE(engine.outcomes()[i].completed.raw_micros(),
                  engine.outcomes()[i - 1].completed.raw_micros());
    // Golden: every particle is interpolated once per step. The digest folds
    // each atom's samples in the order of its points, so it pins that the
    // job's grouping keeps each atom's points in particle order.
    EXPECT_EQ(report.samples_evaluated, 5u * 64u);
    EXPECT_EQ(report.sample_digest, 0x90111778ba770458ULL);
}

TEST(Integration, InterpolatedAdvectionTracksAnalyticTrajectory) {
    // Drive a particle cloud with *interpolated* velocities (the database
    // path) and compare against advection using the analytic field: the two
    // trajectories must stay close over several steps — the data dependency
    // of ordered jobs is genuine, not scripted.
    core::EngineConfig config = small_config();
    core::DirectExecutor exec(config);
    const field::SyntheticField& truth = exec.field();

    workload::ParticleTrackingSpec pspec;
    pspec.particles = 32;
    pspec.seed_center = {0.5, 0.5, 0.5};
    pspec.seed_radius = 0.04;
    std::vector<field::Vec3> via_db = workload::seed_particles(pspec);
    std::vector<field::Vec3> via_field = via_db;

    const double dt = config.grid.dt;
    for (std::uint32_t step = 0; step + 1 < 5; ++step) {
        const double t = config.grid.sim_time(step);
        // Database path: interpolate velocity, explicit Euler step.
        const core::DirectResult result =
            exec.evaluate(step, via_db, field::InterpOrder::kLag6);
        for (std::size_t i = 0; i < via_db.size(); ++i) {
            via_db[i] = field::Vec3{
                field::wrap01(via_db[i].x + dt * result.samples[i].velocity.x),
                field::wrap01(via_db[i].y + dt * result.samples[i].velocity.y),
                field::wrap01(via_db[i].z + dt * result.samples[i].velocity.z)};
        }
        // Ground-truth path with the same integrator.
        for (auto& p : via_field) {
            const field::Vec3 v = truth.velocity(p, t);
            p = field::Vec3{field::wrap01(p.x + dt * v.x), field::wrap01(p.y + dt * v.y),
                            field::wrap01(p.z + dt * v.z)};
        }
    }
    double max_err = 0.0;
    for (std::size_t i = 0; i < via_db.size(); ++i) {
        const auto dist1 = [](double a, double b) {
            const double d = std::fabs(a - b);
            return std::min(d, 1.0 - d);
        };
        max_err = std::max(max_err, dist1(via_db[i].x, via_field[i].x));
        max_err = std::max(max_err, dist1(via_db[i].y, via_field[i].y));
        max_err = std::max(max_err, dist1(via_db[i].z, via_field[i].z));
    }
    EXPECT_LT(max_err, 1e-3);
}

TEST(Integration, CachePoliciesAllCompleteSameWork) {
    core::EngineConfig base = small_config();
    base.scheduler.kind = core::SchedulerKind::kJaws;
    workload::WorkloadSpec spec;
    spec.jobs = 40;
    spec.seed = 8;
    const field::SyntheticField field(base.field);
    const workload::Workload w = workload::generate_workload(spec, base.grid, field);
    std::uint64_t positions = 0;
    for (const auto& job : w.jobs) positions += job.total_positions();

    for (const core::CachePolicy policy :
         {core::CachePolicy::kLruK, core::CachePolicy::kSlru, core::CachePolicy::kUrc}) {
        core::EngineConfig config = base;
        config.cache.policy = policy;
        core::Engine engine(config);
        const core::RunReport report = engine.run(w);
        ASSERT_EQ(report.positions, positions);
        ASSERT_EQ(report.queries, w.total_queries());
    }
}

TEST(Integration, SaturationSweepIsMonotoneInArrivalCompression) {
    // As speedup rises the same work arrives in less time, so the virtual
    // makespan must not increase.
    core::EngineConfig config = small_config();
    config.scheduler.kind = core::SchedulerKind::kJaws;
    workload::WorkloadSpec spec;
    spec.jobs = 40;
    spec.seed = 10;
    const field::SyntheticField field(config.field);
    const workload::Workload base = workload::generate_workload(spec, config.grid, field);

    util::SimTime previous_makespan = util::SimTime::max();
    for (const double speedup : {0.5, 2.0, 8.0}) {
        workload::Workload w = base;
        workload::apply_speedup(w, speedup);
        core::Engine engine(config);
        const core::RunReport report = engine.run(w);
        EXPECT_LE(report.makespan.raw_micros(), previous_makespan.raw_micros());
        previous_makespan = report.makespan;
    }
}

}  // namespace
}  // namespace jaws
