// Tests for particle-tracking jobs (workload/particle_tracker.h).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/morton.h"
#include "util/rng.h"
#include "workload/particle_tracker.h"

namespace jaws::workload {
namespace {

field::GridSpec small_grid() {
    field::GridSpec g;
    g.voxels_per_side = 64;
    g.atom_side = 16;
    g.ghost = 2;
    g.timesteps = 12;
    return g;
}

TEST(SeedParticles, CountAndContainment) {
    ParticleTrackingSpec spec;
    spec.particles = 300;
    spec.seed_center = {0.5, 0.5, 0.5};
    spec.seed_radius = 0.1;
    const auto cloud = seed_particles(spec);
    ASSERT_EQ(cloud.size(), 300u);
    for (const auto& p : cloud) {
        const double dx = p.x - 0.5, dy = p.y - 0.5, dz = p.z - 0.5;
        ASSERT_LE(std::sqrt(dx * dx + dy * dy + dz * dz), 0.1 + 1e-12);
    }
}

TEST(SeedParticles, DeterministicInSeed) {
    ParticleTrackingSpec spec;
    spec.particles = 50;
    const auto a = seed_particles(spec);
    const auto b = seed_particles(spec);
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_DOUBLE_EQ(a[i].x, b[i].x);
        ASSERT_DOUBLE_EQ(a[i].y, b[i].y);
        ASSERT_DOUBLE_EQ(a[i].z, b[i].z);
    }
}

TEST(SeedParticles, WrapsAcrossTorusBoundary) {
    ParticleTrackingSpec spec;
    spec.particles = 200;
    spec.seed_center = {0.02, 0.5, 0.98};
    spec.seed_radius = 0.05;
    for (const auto& p : seed_particles(spec)) {
        ASSERT_GE(p.x, 0.0);
        ASSERT_LT(p.x, 1.0);
        ASSERT_GE(p.z, 0.0);
        ASSERT_LT(p.z, 1.0);
    }
}

TEST(AdvectCloud, PreservesCount) {
    const field::SyntheticField f({.seed = 80, .modes = 6});
    ParticleTrackingSpec spec;
    spec.particles = 64;
    const auto cloud = seed_particles(spec);
    const auto moved = advect_cloud(f, cloud, 0.0, 0.01);
    EXPECT_EQ(moved.size(), cloud.size());
}

TEST(AdvectCloud, ParticlesActuallyMove) {
    const field::SyntheticField f({.seed = 81, .modes = 6});
    ParticleTrackingSpec spec;
    spec.particles = 32;
    const auto cloud = seed_particles(spec);
    const auto moved = advect_cloud(f, cloud, 0.0, 0.05);
    double displacement = 0.0;
    for (std::size_t i = 0; i < cloud.size(); ++i)
        displacement += std::fabs(moved[i].x - cloud[i].x);
    EXPECT_GT(displacement, 0.0);
}

TEST(GroupByAtom, FootprintGroupsByAtomAndSorts) {
    const field::GridSpec grid = small_grid();
    // Four positions: two in atom (0,0,0), one each in two other atoms.
    const std::vector<field::Vec3> positions = {
        {0.05, 0.3, 0.05}, {0.05, 0.05, 0.05}, {0.3, 0.05, 0.05}, {0.1, 0.1, 0.1}};
    const AtomGrouping g = group_by_atom(grid, 2, positions);
    const std::vector<std::pair<util::Coord3, std::uint64_t>> expected = {
        {{0, 0, 0}, 2}, {{1, 0, 0}, 1}, {{0, 1, 0}, 1}};  // Morton order
    ASSERT_EQ(g.footprint.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const storage::AtomId atom{2, util::morton_encode(expected[i].first)};
        EXPECT_EQ(g.footprint[i].atom, atom) << i;
        EXPECT_EQ(g.footprint[i].positions, expected[i].second) << i;
    }

    // On a random cloud, the footprint is a per-atom count keyed (so sorted)
    // by Morton code.
    util::Rng rng(7);
    std::vector<field::Vec3> cloud;
    for (int i = 0; i < 500; ++i) cloud.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
    std::map<std::uint64_t, std::uint64_t> counts;
    for (const field::Vec3& p : cloud) ++counts[grid.atom_morton_of(p)];
    const AtomGrouping random = group_by_atom(grid, 5, cloud);
    ASSERT_EQ(random.footprint.size(), counts.size());
    std::size_t i = 0;
    for (const auto& [code, n] : counts) {
        EXPECT_EQ(random.footprint[i].atom, (storage::AtomId{5, code})) << i;
        EXPECT_EQ(random.footprint[i].positions, n) << i;
        ++i;
    }
}

TEST(GroupByAtom, OrderMapsGroupedPointsBackToTheInputInOrderWithinEachAtom) {
    const field::GridSpec grid = small_grid();
    util::Rng rng(8);
    std::vector<field::Vec3> cloud;
    // Clustered near an atom corner, so several atoms interleave.
    for (int i = 0; i < 300; ++i)
        cloud.push_back({0.2 + 0.1 * rng.uniform(), 0.2 + 0.1 * rng.uniform(),
                         0.2 + 0.1 * rng.uniform()});
    const AtomGrouping g = group_by_atom(grid, 0, cloud);
    ASSERT_GT(g.footprint.size(), 1u);
    ASSERT_EQ(g.order.size(), cloud.size());
    ASSERT_EQ(g.positions.size(), cloud.size());
    std::vector<bool> seen(cloud.size(), false);
    std::size_t k = 0;
    for (const AtomRequest& req : g.footprint)
        for (std::uint64_t n = 0; n < req.positions; ++n, ++k) {
            const std::size_t i = g.order[k];
            ASSERT_LT(i, cloud.size());
            ASSERT_FALSE(seen[i]) << "index " << i << " appears twice";
            seen[i] = true;
            // The k-th grouped point is the caller's point i: it lies in its
            // entry's atom, after the entry's earlier points in the caller's
            // order.
            EXPECT_EQ(g.positions[k].x, cloud[i].x) << k;
            EXPECT_EQ(g.positions[k].y, cloud[i].y) << k;
            EXPECT_EQ(g.positions[k].z, cloud[i].z) << k;
            EXPECT_EQ(grid.atom_morton_of(cloud[i]), req.atom.morton) << k;
            if (n > 0) {
                EXPECT_LT(g.order[k - 1], i) << k;
            }
        }
    EXPECT_EQ(k, cloud.size());
}

TEST(GroupByAtom, RejectsCoordinatesThatAreNotFinite) {
    const field::GridSpec grid = small_grid();
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
        const std::vector<field::Vec3> positions = {{0.1, 0.1, 0.1}, {0.2, bad, 0.2}};
        try {
            group_by_atom(grid, 0, positions);
            ADD_FAILURE() << "grouped position " << bad;
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("position 1 "), std::string::npos) << e.what();
        }
    }
}

TEST(MakeParticleTrackingJob, StructureIsOrderedChain) {
    const field::GridSpec grid = small_grid();
    const field::SyntheticField f({.seed = 82, .modes = 6});
    ParticleTrackingSpec spec;
    spec.particles = 100;
    spec.start_step = 2;
    spec.steps = 5;
    const Job job = make_particle_tracking_job(spec, grid, f, 42, 3,
                                               util::SimTime::from_seconds(10));
    EXPECT_EQ(job.id, 42u);
    EXPECT_EQ(job.type, JobType::kOrdered);
    ASSERT_EQ(job.queries.size(), 5u);
    for (std::size_t i = 0; i < job.queries.size(); ++i) {
        const Query& q = job.queries[i];
        ASSERT_EQ(q.seq_in_job, i);
        ASSERT_EQ(q.timestep, 2 + i);
        ASSERT_EQ(q.positions.size(), 100u);
        ASSERT_FALSE(q.footprint.empty());
        // Footprint must match the explicit positions exactly: each entry
        // owns the next of its count, all inside its atom (Query's layout).
        ASSERT_EQ(q.total_positions(), q.positions.size());
        std::size_t k = 0;
        for (const AtomRequest& req : q.footprint) {
            ASSERT_EQ(req.atom.timestep, q.timestep);
            for (std::uint64_t n = 0; n < req.positions; ++n, ++k)
                ASSERT_EQ(grid.atom_morton_of(q.positions[k]), req.atom.morton) << k;
        }
    }
}

TEST(MakeParticleTrackingJob, ConsecutiveQueriesAreAdvectionsOfPredecessor) {
    const field::GridSpec grid = small_grid();
    const field::SyntheticField f({.seed = 83, .modes = 6});
    ParticleTrackingSpec spec;
    spec.particles = 20;
    spec.start_step = 0;
    spec.steps = 3;
    const Job job = make_particle_tracking_job(spec, grid, f, 1, 1, util::SimTime::zero());
    // The cloud advects in particle order; each query stores it grouped.
    const auto cloud = advect_cloud(f, seed_particles(spec), grid.sim_time(0), grid.dt);
    const AtomGrouping expected = group_by_atom(grid, 1, cloud);
    const Query& q = job.queries[1];
    ASSERT_EQ(q.footprint.size(), expected.footprint.size());
    for (std::size_t i = 0; i < q.footprint.size(); ++i) {
        EXPECT_EQ(q.footprint[i].atom, expected.footprint[i].atom) << i;
        EXPECT_EQ(q.footprint[i].positions, expected.footprint[i].positions) << i;
    }
    ASSERT_EQ(q.positions.size(), expected.positions.size());
    for (std::size_t k = 0; k < q.positions.size(); ++k) {
        ASSERT_EQ(q.positions[k].x, expected.positions[k].x) << k;
        ASSERT_EQ(q.positions[k].y, expected.positions[k].y) << k;
        ASSERT_EQ(q.positions[k].z, expected.positions[k].z) << k;
    }
}

TEST(MakeParticleTrackingJob, BackwardTracking) {
    const field::GridSpec grid = small_grid();
    const field::SyntheticField f({.seed = 84, .modes = 6});
    ParticleTrackingSpec spec;
    spec.particles = 10;
    spec.start_step = 8;
    spec.steps = 4;
    spec.direction = -1;
    const Job job = make_particle_tracking_job(spec, grid, f, 1, 1, util::SimTime::zero());
    ASSERT_EQ(job.queries.size(), 4u);
    EXPECT_EQ(job.queries[0].timestep, 8u);
    EXPECT_EQ(job.queries[3].timestep, 5u);
}

}  // namespace
}  // namespace jaws::workload
