// Tests for sub-query execution (storage/database_node.h).
#include <gtest/gtest.h>

#include <cmath>

#include "storage/atom_store.h"
#include "storage/database_node.h"
#include "util/morton.h"

namespace jaws::storage {
namespace {

field::GridSpec small_grid() {
    field::GridSpec g;
    g.voxels_per_side = 64;
    g.atom_side = 16;
    g.ghost = 2;
    g.timesteps = 2;
    return g;
}

TEST(DatabaseNode, ChargesPerPosition) {
    DatabaseNode node(small_grid(), CostModel{.t_m_us = 40.0});
    SubQueryExec work;
    work.position_count = 100;
    EXPECT_EQ(node.modeled_cost(work).raw_micros(), 4000);
    EXPECT_TRUE(node.execute(work, nullptr).samples.empty());
}

TEST(DatabaseNode, ExplicitPositionsOverrideCount) {
    DatabaseNode node(small_grid(), CostModel{.t_m_us = 10.0});
    SubQueryExec work;
    work.position_count = 999;  // ignored when explicit positions exist
    work.positions = {{0.1, 0.1, 0.1}, {0.2, 0.2, 0.2}};
    EXPECT_EQ(node.modeled_cost(work).raw_micros(), 20);
}

TEST(DatabaseNode, ZeroPositionsZeroCost) {
    DatabaseNode node(small_grid(), CostModel{});
    EXPECT_EQ(node.modeled_cost(SubQueryExec{}).raw_micros(), 0);
}

class DatabaseNodeWithData : public ::testing::Test {
  protected:
    DatabaseNodeWithData()
        : store_(AtomStoreSpec{small_grid(),
                               field::FieldSpec{.seed = 70, .modes = 6, .max_wavenumber = 3.0},
                               DiskSpec{},
                               /*io_channels=*/1,
                               /*materialize_data=*/true,
                               FaultSpec{}}),
          node_(small_grid(), CostModel{}) {}

    AtomStore store_;
    DatabaseNode node_;
};

TEST_F(DatabaseNodeWithData, InterpolatesVelocityAtPositions) {
    const util::Coord3 atom_coord{1, 1, 1};
    const AtomId atom{0, util::morton_encode(atom_coord)};
    const auto data = store_.read(atom).data;

    SubQueryExec work;
    work.atom = atom;
    work.order = field::InterpOrder::kLag4;
    work.kind = ComputeKind::kVelocity;
    const double extent = 0.25;  // atoms per side = 4
    work.positions = {{1.5 * extent, 1.5 * extent, 1.5 * extent},
                      {1.2 * extent, 1.7 * extent, 1.4 * extent}};
    const ExecOutcome out = node_.execute(work, data.get());
    ASSERT_EQ(out.samples.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        const field::FlowSample truth = store_.field().sample(work.positions[i], 0.0);
        EXPECT_NEAR(out.samples[i].velocity.x, truth.velocity.x, 5e-3);
        EXPECT_NEAR(out.samples[i].velocity.y, truth.velocity.y, 5e-3);
        EXPECT_NEAR(out.samples[i].pressure, truth.pressure, 5e-3);
    }
}

TEST_F(DatabaseNodeWithData, FlowStatsCollapsesToMagnitude) {
    const util::Coord3 atom_coord{2, 2, 2};
    const AtomId atom{1, util::morton_encode(atom_coord)};
    const auto data = store_.read(atom).data;

    SubQueryExec work;
    work.atom = atom;
    work.kind = ComputeKind::kFlowStats;
    const double extent = 0.25;
    work.positions = {{2.5 * extent, 2.5 * extent, 2.5 * extent}};
    const ExecOutcome out = node_.execute(work, data.get());
    ASSERT_EQ(out.samples.size(), 1u);
    const field::Vec3 truth =
        store_.field().velocity(work.positions[0], small_grid().sim_time(1));
    EXPECT_NEAR(out.samples[0].velocity.x, std::sqrt(truth.norm2()), 1e-2);
    EXPECT_DOUBLE_EQ(out.samples[0].velocity.y, 0.0);
}

TEST_F(DatabaseNodeWithData, NoSamplesWithoutExplicitPositions) {
    const AtomId atom{0, util::morton_encode(1, 0, 0)};
    const auto data = store_.read(atom).data;
    SubQueryExec work;
    work.atom = atom;
    work.position_count = 50;
    const ExecOutcome out = node_.execute(work, data.get());
    EXPECT_TRUE(out.samples.empty());
    EXPECT_GT(node_.modeled_cost(work).raw_micros(), 0);
}

}  // namespace
}  // namespace jaws::storage
