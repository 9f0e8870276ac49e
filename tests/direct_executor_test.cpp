// Tests for direct (materialised) query execution (core/direct_executor.h).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/direct_executor.h"
#include "util/rng.h"

namespace jaws::core {
namespace {

EngineConfig small_config() {
    EngineConfig c;
    c.grid.voxels_per_side = 64;
    c.grid.atom_side = 16;
    c.grid.ghost = 4;
    c.grid.timesteps = 4;
    c.field.modes = 6;
    c.field.max_wavenumber = 3.0;
    c.cache.capacity_atoms = 16;
    return c;
}

TEST(DirectExecutor, SamplesMatchAnalyticField) {
    DirectExecutor exec(small_config());
    util::Rng rng(90);
    std::vector<field::Vec3> positions;
    for (int i = 0; i < 40; ++i)
        positions.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
    const DirectResult result = exec.evaluate(2, positions, field::InterpOrder::kLag6);
    ASSERT_EQ(result.samples.size(), positions.size());
    for (std::size_t i = 0; i < positions.size(); ++i) {
        const field::FlowSample truth =
            exec.field().sample(positions[i], exec.grid().sim_time(2));
        ASSERT_NEAR(result.samples[i].velocity.x, truth.velocity.x, 1e-2);
        ASSERT_NEAR(result.samples[i].velocity.y, truth.velocity.y, 1e-2);
        ASSERT_NEAR(result.samples[i].velocity.z, truth.velocity.z, 1e-2);
        ASSERT_NEAR(result.samples[i].pressure, truth.pressure, 1e-2);
    }
}

TEST(DirectExecutor, ResultsInInputOrder) {
    DirectExecutor exec(small_config());
    // Positions deliberately out of Morton order.
    const std::vector<field::Vec3> positions = {
        {0.9, 0.9, 0.9}, {0.1, 0.1, 0.1}, {0.5, 0.2, 0.8}};
    const DirectResult result = exec.evaluate(0, positions);
    for (std::size_t i = 0; i < positions.size(); ++i) {
        const field::FlowSample truth = exec.field().sample(positions[i], 0.0);
        ASSERT_NEAR(result.samples[i].velocity.x, truth.velocity.x, 2e-2) << i;
    }
}

TEST(DirectExecutor, SecondEvaluationHitsCache) {
    DirectExecutor exec(small_config());
    const std::vector<field::Vec3> positions = {{0.3, 0.3, 0.3}, {0.32, 0.31, 0.3}};
    const DirectResult first = exec.evaluate(1, positions);
    EXPECT_GT(first.cache_misses, 0u);
    const DirectResult second = exec.evaluate(1, positions);
    EXPECT_EQ(second.cache_misses, 0u);
    EXPECT_GT(second.cache_hits, 0u);
    EXPECT_LT(second.virtual_cost.raw_micros(), first.virtual_cost.raw_micros());
}

TEST(DirectExecutor, VirtualCostCharged) {
    DirectExecutor exec(small_config());
    const DirectResult r = exec.evaluate(0, {{0.5, 0.5, 0.5}});
    EXPECT_GT(r.virtual_cost.raw_micros(), 0);
}

TEST(DirectExecutor, EmptyPositions) {
    DirectExecutor exec(small_config());
    const DirectResult r = exec.evaluate(0, {});
    EXPECT_TRUE(r.samples.empty());
    EXPECT_EQ(r.cache_misses, 0u);
}

TEST(DirectExecutor, VolumeStatsMatchAnalyticMoments) {
    DirectExecutor exec(small_config());
    const VolumeStats stats = exec.evaluate_box(
        1, {0.2, 0.2, 0.2}, {0.6, 0.6, 0.6}, 12, field::InterpOrder::kLag6);
    EXPECT_EQ(stats.samples, 12u * 12 * 12);
    EXPECT_GT(stats.atoms_touched, 0u);
    // Compare against directly sampling the analytic field on the same box.
    util::Rng rng(4);
    double sum_speed2 = 0.0, sum_p = 0.0;
    constexpr int kProbes = 4000;
    for (int i = 0; i < kProbes; ++i) {
        const field::Vec3 p{rng.uniform(0.2, 0.6), rng.uniform(0.2, 0.6),
                            rng.uniform(0.2, 0.6)};
        const field::FlowSample s = exec.field().sample(p, exec.grid().sim_time(1));
        sum_speed2 += s.velocity.norm2();
        sum_p += s.pressure;
    }
    EXPECT_NEAR(stats.rms_velocity, std::sqrt(sum_speed2 / kProbes), 0.08);
    EXPECT_NEAR(stats.mean_pressure, sum_p / kProbes, 0.08);
    EXPECT_NEAR(stats.kinetic_energy, 0.5 * stats.rms_velocity * stats.rms_velocity,
                1e-9);
}

TEST(DirectExecutor, VolumeStatsWholeDomainRmsNearCalibration) {
    // The synthetic field is calibrated to rms_velocity = 1; a whole-domain
    // statistical array must recover it.
    DirectExecutor exec(small_config());
    const VolumeStats stats =
        exec.evaluate_box(0, {0.0, 0.0, 0.0}, {0.999, 0.999, 0.999}, 10);
    EXPECT_NEAR(stats.rms_velocity, 1.0, 0.25);
    EXPECT_LT(std::fabs(stats.mean_velocity.x), 0.35);
}

TEST(DirectExecutor, VolumeStatsSingleSampleAxis) {
    DirectExecutor exec(small_config());
    const VolumeStats stats = exec.evaluate_box(0, {0.5, 0.5, 0.5}, {0.5, 0.5, 0.5}, 1);
    EXPECT_EQ(stats.samples, 1u);
    const field::FlowSample truth = exec.field().sample({0.5, 0.5, 0.5}, 0.0);
    EXPECT_NEAR(stats.mean_pressure, truth.pressure, 1e-2);
}

/// What evaluate_box throws for a box and lattice ("" when it accepts them).
std::string box_error(const field::Vec3& lo, const field::Vec3& hi,
                      std::uint32_t samples_per_axis) {
    DirectExecutor exec(small_config());
    try {
        exec.evaluate_box(0, lo, hi, samples_per_axis);
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return "";
}

// An empty lattice averages zero samples: every statistic would be NaN.
TEST(DirectExecutor, VolumeStatsRejectAnEmptyLattice) {
    EXPECT_NE(box_error({0.2, 0.2, 0.2}, {0.6, 0.6, 0.6}, 0).find("samples_per_axis"),
              std::string::npos);
}

TEST(DirectExecutor, VolumeStatsRejectCornersOutsideTheUnitCube) {
    for (const double bad : {-0.1, 1.0, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
        SCOPED_TRACE(bad);
        EXPECT_NE(box_error({bad, 0.2, 0.2}, {0.6, 0.6, 0.6}, 4).find(": lo has coordinate"),
                  std::string::npos);
        EXPECT_NE(box_error({0.2, 0.2, 0.2}, {0.6, 0.6, bad}, 4).find(": hi has coordinate"),
                  std::string::npos);
    }
}

TEST(DirectExecutor, VolumeStatsRejectAnInvertedBox) {
    EXPECT_NE(box_error({0.2, 0.6, 0.2}, {0.6, 0.2, 0.6}, 4).find("lo exceeds hi"),
              std::string::npos);
    EXPECT_EQ(box_error({0.2, 0.2, 0.2}, {0.2, 0.2, 0.2}, 1), "");  // a point is a box
}

}  // namespace
}  // namespace jaws::core
