// Tests for trajectory prefetching (sched/prefetcher.h) and its engine wiring.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/engine.h"
#include "sched/prefetcher.h"
#include "util/morton.h"
#include "workload/generator.h"

namespace jaws::sched {
namespace {

std::vector<workload::AtomRequest> footprint_at(std::uint32_t step,
                                                std::initializer_list<util::Coord3> coords) {
    std::vector<workload::AtomRequest> out;
    for (const auto& c : coords)
        out.push_back(workload::AtomRequest{{step, util::morton_encode(c)}, 10});
    return out;
}

PrefetchConfig config() {
    PrefetchConfig c;
    c.enabled = true;
    return c;
}

TEST(Prefetcher, NoPredictionWithoutHistory) {
    TrajectoryPrefetcher p(config(), 16);
    p.observe(1, 0, 0, footprint_at(0, {{4, 4, 4}}));
    EXPECT_TRUE(p.predict(1).empty());
}

TEST(Prefetcher, PredictsLinearSpatialDrift) {
    TrajectoryPrefetcher p(config(), 16);
    p.observe(1, 0, 3, footprint_at(3, {{4, 4, 4}}));
    p.observe(1, 1, 4, footprint_at(4, {{5, 4, 4}}));  // +1 in x, +1 step
    const auto predicted = p.predict(1);
    ASSERT_EQ(predicted.size(), 1u);
    EXPECT_EQ(predicted[0].timestep, 5u);
    EXPECT_EQ(predicted[0].morton, util::morton_encode(6, 4, 4));
}

TEST(Prefetcher, PredictsBackwardTimeIteration) {
    TrajectoryPrefetcher p(config(), 16);
    p.observe(1, 0, 8, footprint_at(8, {{2, 2, 2}}));
    p.observe(1, 1, 7, footprint_at(7, {{2, 2, 2}}));
    const auto predicted = p.predict(1);
    ASSERT_EQ(predicted.size(), 1u);
    EXPECT_EQ(predicted[0].timestep, 6u);
}

TEST(Prefetcher, TranslatesWholeFootprintShape) {
    TrajectoryPrefetcher p(config(), 16);
    p.observe(1, 0, 0, footprint_at(0, {{4, 4, 4}, {5, 4, 4}}));
    p.observe(1, 1, 1, footprint_at(1, {{4, 5, 4}, {5, 5, 4}}));  // +1 in y
    const auto predicted = p.predict(1);
    ASSERT_EQ(predicted.size(), 2u);
    EXPECT_TRUE(std::any_of(predicted.begin(), predicted.end(), [](const storage::AtomId& a) {
        return a.morton == util::morton_encode(4, 6, 4);
    }));
    EXPECT_TRUE(std::any_of(predicted.begin(), predicted.end(), [](const storage::AtomId& a) {
        return a.morton == util::morton_encode(5, 6, 4);
    }));
}

TEST(Prefetcher, WrapsOnTorus) {
    TrajectoryPrefetcher p(config(), 16);
    p.observe(1, 0, 0, footprint_at(0, {{14, 0, 0}}));
    p.observe(1, 1, 1, footprint_at(1, {{15, 0, 0}}));
    const auto predicted = p.predict(1);
    ASSERT_EQ(predicted.size(), 1u);
    EXPECT_EQ(predicted[0].morton, util::morton_encode(0, 0, 0));
}

TEST(Prefetcher, ErraticJobsNotPredicted) {
    TrajectoryPrefetcher p(config(), 16);
    p.observe(1, 0, 0, footprint_at(0, {{0, 0, 0}}));
    // Jumped across the box: 7 * sqrt(3) / 16 ~ 0.76 of the torus in one
    // step, above the 0.25 cap.
    p.observe(1, 1, 0, footprint_at(0, {{7, 7, 7}}));
    EXPECT_TRUE(p.predict(1).empty());
}

TEST(Prefetcher, NonConsecutiveSequenceResetsVelocity) {
    TrajectoryPrefetcher p(config(), 16);
    p.observe(1, 0, 0, footprint_at(0, {{4, 4, 4}}));
    p.observe(1, 2, 2, footprint_at(2, {{6, 4, 4}}));  // gap in seq
    EXPECT_TRUE(p.predict(1).empty());
}

TEST(Prefetcher, ForgetDropsState) {
    TrajectoryPrefetcher p(config(), 16);
    p.observe(1, 0, 0, footprint_at(0, {{4, 4, 4}}));
    p.observe(1, 1, 1, footprint_at(1, {{5, 4, 4}}));
    p.forget(1);
    EXPECT_TRUE(p.predict(1).empty());
}

TEST(Prefetcher, AccuracyAccounting) {
    TrajectoryPrefetcher p(config(), 16);
    const storage::AtomId a{0, 1}, b{0, 2};
    p.on_prefetched(a);
    p.on_prefetched(b);
    p.on_demand_access(a);  // a pays off
    p.on_evicted(a);
    p.on_evicted(b);  // b wasted
    EXPECT_EQ(p.stats().prefetches, 2u);
    EXPECT_EQ(p.stats().hits, 1u);
    EXPECT_EQ(p.stats().wasted, 1u);
    EXPECT_DOUBLE_EQ(p.stats().accuracy(), 0.5);
}

TEST(Prefetcher, DemandAccessOnlyCountsOnce) {
    TrajectoryPrefetcher p(config(), 16);
    const storage::AtomId a{0, 1};
    p.on_prefetched(a);
    p.on_demand_access(a);
    p.on_demand_access(a);
    EXPECT_EQ(p.stats().hits, 1u);
}

TEST(PrefetcherEngine, TrackingWorkloadBenefitsFromPrefetch) {
    // Ordered jobs marching through time steps are exactly what trajectory
    // prefetching predicts; a run with prefetching on must achieve nonzero
    // accuracy and must not change the computed work.
    core::EngineConfig base;
    base.grid.voxels_per_side = 256;
    base.grid.atom_side = 32;
    base.grid.timesteps = 10;
    base.field.modes = 6;
    base.cache.capacity_atoms = 128;
    base.scheduler.kind = core::SchedulerKind::kJaws;

    workload::WorkloadSpec spec;
    spec.jobs = 40;
    spec.seed = 77;
    spec.frac_single_step = 0.0;   // all multi-step ordered jobs
    spec.frac_full_span = 0.5;
    spec.drift_scale = 8.0;        // smooth trajectories: predictable motion
    spec.mean_burst_gap_s = 60.0;  // light load: short prediction-to-use gap
    const field::SyntheticField field(base.field);
    const workload::Workload w = workload::generate_workload(spec, base.grid, field);

    core::EngineConfig with = base;
    with.prefetch.enabled = true;
    core::Engine ea(base), eb(with);
    const core::RunReport off = ea.run(w);
    const core::RunReport on = eb.run(w);
    EXPECT_EQ(on.positions, off.positions);
    EXPECT_GT(on.prefetch.prefetches, 0u);
    EXPECT_GT(on.prefetch.hits, 0u);
    EXPECT_GT(on.prefetch.hits, 20u);
    EXPECT_GT(on.prefetch.accuracy(), 0.15);
    EXPECT_EQ(off.prefetch.prefetches, 0u);
}

}  // namespace
}  // namespace jaws::sched
