// Tests for grid/atom geometry and voxel materialisation (field/grid.h).
#include <gtest/gtest.h>

#include "field/grid.h"
#include "util/rng.h"

namespace jaws::field {
namespace {

GridSpec small_grid() {
    GridSpec g;
    g.voxels_per_side = 64;
    g.atom_side = 16;
    g.ghost = 2;
    g.timesteps = 4;
    return g;
}

TEST(GridSpec, DerivedCounts) {
    const GridSpec g = small_grid();
    EXPECT_EQ(g.atoms_per_side(), 4u);
    EXPECT_EQ(g.atoms_per_step(), 64u);
    EXPECT_EQ(g.total_atoms(), 256u);
}

TEST(GridSpec, ProductionScaleMatchesPaper) {
    const GridSpec g;  // defaults
    EXPECT_EQ(g.voxels_per_side, 1024u);
    EXPECT_EQ(g.atom_side, 64u);
    EXPECT_EQ(g.atoms_per_step(), 4096u);  // paper Sec. III-A
    EXPECT_EQ(g.timesteps, 31u);           // the 800 GB evaluation sample
    // 72^3 voxels * 16 bytes ~ the paper's "roughly 8 MB" atom.
    EXPECT_NEAR(static_cast<double>(g.atom_bytes()) / (1 << 20), 5.7, 0.3);
}

TEST(GridSpec, VoxelOfPositionCenterRoundTrip) {
    const GridSpec g = small_grid();
    util::Rng rng(30);
    for (int i = 0; i < 300; ++i) {
        const util::Coord3 v{static_cast<std::uint32_t>(rng.uniform_u64(64)),
                             static_cast<std::uint32_t>(rng.uniform_u64(64)),
                             static_cast<std::uint32_t>(rng.uniform_u64(64))};
        ASSERT_EQ(g.voxel_of(g.position_of(v)), v);
    }
}

TEST(GridSpec, VoxelOfWrapsOutOfRangePositions) {
    const GridSpec g = small_grid();
    const util::Coord3 a = g.voxel_of(Vec3{1.25, -0.75, 2.0});
    const util::Coord3 b = g.voxel_of(Vec3{0.25, 0.25, 0.0});
    EXPECT_EQ(a, b);
}

TEST(GridSpec, AtomOfVoxel) {
    const GridSpec g = small_grid();
    EXPECT_EQ(g.atom_of_voxel({0, 0, 0}), (util::Coord3{0, 0, 0}));
    EXPECT_EQ(g.atom_of_voxel({15, 15, 15}), (util::Coord3{0, 0, 0}));
    EXPECT_EQ(g.atom_of_voxel({16, 0, 32}), (util::Coord3{1, 0, 2}));
}

TEST(GridSpec, AtomMortonOfPosition) {
    const GridSpec g = small_grid();
    // Position at the centre of atom (1, 2, 3).
    const Vec3 p{(1 + 0.5) / 4.0, (2 + 0.5) / 4.0, (3 + 0.5) / 4.0};
    EXPECT_EQ(g.atom_morton_of(p), util::morton_encode(1, 2, 3));
}

TEST(GridSpec, SimTimeScalesWithStep) {
    const GridSpec g = small_grid();
    EXPECT_DOUBLE_EQ(g.sim_time(0), 0.0);
    EXPECT_DOUBLE_EQ(g.sim_time(3), 3 * g.dt);
}

TEST(VoxelBlock, ExtentIncludesGhosts) {
    const GridSpec g = small_grid();
    const SyntheticField f({.seed = 40, .modes = 8});
    const VoxelBlock block(g, f, {1, 1, 1}, 0);
    EXPECT_EQ(block.extent(), g.atom_side + 2 * g.ghost);
    EXPECT_GT(block.bytes(), 0u);
}

TEST(VoxelBlock, InteriorVoxelMatchesField) {
    const GridSpec g = small_grid();
    const SyntheticField f({.seed = 41, .modes = 8});
    const util::Coord3 atom{2, 1, 3};
    const VoxelBlock block(g, f, atom, 2);
    // Local (5, 6, 7) with ghost 2 -> global voxel (2*16+3, 1*16+4, 3*16+5).
    const util::Coord3 global{2 * 16 + 5 - 2, 1 * 16 + 6 - 2, 3 * 16 + 7 - 2};
    const FlowSample expected = f.sample(g.position_of(global), g.sim_time(2));
    const FlowSample got = block.at(5, 6, 7);
    EXPECT_NEAR(got.velocity.x, expected.velocity.x, 1e-5);
    EXPECT_NEAR(got.pressure, expected.pressure, 1e-5);
}

TEST(VoxelBlock, GhostVoxelWrapsPeriodically) {
    const GridSpec g = small_grid();
    const SyntheticField f({.seed = 42, .modes = 8});
    // Atom (0,0,0): local (0,?,?) ghosts reach global voxel -2 == 62 (wrap).
    const VoxelBlock block(g, f, {0, 0, 0}, 1);
    const util::Coord3 wrapped{62, 5, 5};
    const FlowSample expected = f.sample(g.position_of(wrapped), g.sim_time(1));
    const FlowSample got = block.at(0, 5 + 2, 5 + 2);
    EXPECT_NEAR(got.velocity.y, expected.velocity.y, 1e-5);
}

TEST(VoxelBlock, DifferentTimestepsDiffer) {
    const GridSpec g = small_grid();
    const SyntheticField f({.seed = 43, .modes = 8});
    const VoxelBlock b0(g, f, {1, 1, 1}, 0);
    const VoxelBlock b3(g, f, {1, 1, 1}, 3);
    EXPECT_NE(b0.at(8, 8, 8).velocity.x, b3.at(8, 8, 8).velocity.x);
}

}  // namespace
}  // namespace jaws::field
