// Tests for the atom store (storage/atom_store.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "storage/atom_store.h"
#include "util/morton.h"
#include "util/rng.h"

namespace jaws::storage {
namespace {

AtomStoreSpec small_spec(bool materialize = false) {
    AtomStoreSpec spec;
    spec.grid.voxels_per_side = 64;
    spec.grid.atom_side = 16;
    spec.grid.ghost = 2;
    spec.grid.timesteps = 3;
    spec.field.modes = 6;
    spec.materialize_data = materialize;
    return spec;
}

/// A grid of `side`^3 atoms (16 voxels each) over two time steps.
AtomStoreSpec cube_spec(std::uint32_t side) {
    AtomStoreSpec spec = small_spec();
    spec.grid.voxels_per_side = side * spec.grid.atom_side;
    spec.grid.timesteps = 2;
    return spec;
}

/// The clustered layout built independently of AtomStore, the way a bulk
/// load lays records out: every (time step, Morton) key of the dataset
/// sorted, each given the next consecutive atom_bytes extent.
std::map<AtomKey, std::uint64_t> layout_oracle(const field::GridSpec& grid) {
    std::vector<AtomKey> keys;
    const std::uint32_t side = grid.atoms_per_side();
    for (std::uint32_t t = 0; t < grid.timesteps; ++t)
        for (std::uint32_t z = 0; z < side; ++z)
            for (std::uint32_t y = 0; y < side; ++y)
                for (std::uint32_t x = 0; x < side; ++x)
                    keys.push_back(AtomId{t, util::morton_encode(x, y, z)}.key());
    std::sort(keys.begin(), keys.end());
    std::map<AtomKey, std::uint64_t> offsets;
    std::uint64_t offset = 0;
    for (const AtomKey key : keys) {
        offsets.emplace(key, offset);
        offset += grid.atom_bytes();
    }
    return offsets;
}

TEST(AtomStore, LayoutMatchesSortedKeyOracle) {
    // One power-of-two grid and two whose Morton cover has holes (3 and 5
    // atoms per side), where an atom's rank in the cover is not its code.
    for (const std::uint32_t side : {4u, 3u, 5u}) {
        SCOPED_TRACE(side);
        const AtomStoreSpec spec = cube_spec(side);
        const std::map<AtomKey, std::uint64_t> oracle = layout_oracle(spec.grid);
        const std::uint64_t bytes = spec.grid.atom_bytes();
        AtomStore store(spec);
        DiskModel reference(spec.disk, oracle.size() * bytes);

        // Every atom in key order, then the same atoms shuffled, priced by
        // the store and by a disk fed the oracle's offsets. In key order each
        // oracle read is sequential, so equal costs read for read put every
        // atom at its oracle offset; the shuffled pass prices real seeks.
        std::vector<std::pair<AtomId, std::uint64_t>> reads;
        for (const auto& [key, offset] : oracle) reads.emplace_back(AtomId::from_key(key), offset);
        std::vector<std::pair<AtomId, std::uint64_t>> shuffled = reads;
        util::Rng rng(side);
        for (std::size_t i = shuffled.size(); i > 1; --i)
            std::swap(shuffled[i - 1], shuffled[rng.uniform_u64(i)]);
        reads.insert(reads.end(), shuffled.begin(), shuffled.end());
        for (const auto& [id, offset] : reads) {
            ASSERT_EQ(store.read(id).io_cost.raw_micros(), reference.read(offset, bytes).raw_micros())
                << "t=" << id.timestep << " morton=" << id.morton;
        }

        // Membership agrees with the oracle for every code up to one past the
        // cover's maximum, in every step and the first one past the end.
        const std::uint64_t max_code = util::morton_encode(side - 1, side - 1, side - 1);
        for (std::uint32_t t = 0; t <= spec.grid.timesteps; ++t)
            for (std::uint64_t code = 0; code <= max_code + 1; ++code)
                ASSERT_EQ(store.contains({t, code}), oracle.contains(AtomId{t, code}.key()))
                    << "t=" << t << " morton=" << code;

        const AtomId past_end{spec.grid.timesteps, 0};
        EXPECT_FALSE(store.contains(past_end));
        EXPECT_THROW(store.read(past_end), std::out_of_range);
    }

    // On the 3-per-side grid, code 9 = (3, 0, 0) is below the cover's
    // maximum code 56 = (2, 2, 2) but lies outside the cube.
    AtomStore store(cube_spec(3));
    const AtomId outside{0, util::morton_encode(3, 0, 0)};
    ASSERT_LT(outside.morton, util::morton_encode(2, 2, 2));
    EXPECT_FALSE(store.contains(outside));
    EXPECT_THROW(store.read(outside), std::out_of_range);
}

TEST(AtomStore, ContainsInBounds) {
    AtomStore store(small_spec());
    EXPECT_TRUE(store.contains({0, 0}));
    EXPECT_TRUE(store.contains({2, util::morton_encode(3, 3, 3)}));
    EXPECT_FALSE(store.contains({3, 0}));  // timestep out of range
    EXPECT_FALSE(store.contains({0, util::morton_encode(4, 0, 0)}));
}

TEST(AtomStore, ReadChargesIo) {
    AtomStore store(small_spec());
    const ReadResult r = store.read({1, util::morton_encode(2, 1, 0)});
    EXPECT_GT(r.io_cost.raw_micros(), 0);
    EXPECT_EQ(r.data, nullptr);  // not materialising
    EXPECT_EQ(store.disk_stats().requests, 1u);
}

TEST(AtomStore, ReadOutOfRangeThrows) {
    AtomStore store(small_spec());
    EXPECT_THROW(store.read({9, 0}), std::out_of_range);
}

TEST(AtomStore, MortonNeighborsAreCheapAfterRead) {
    // Atoms adjacent in Morton order within a time step sit adjacently on
    // disk: reading them in Morton order is sequential (no seek).
    AtomStore store(small_spec());
    std::uint64_t codes[2] = {util::morton_encode(0, 0, 0), util::morton_encode(1, 0, 0)};
    const util::SimTime first = store.read({0, codes[0]}).io_cost;
    const util::SimTime second = store.read({0, codes[1]}).io_cost;
    EXPECT_LT(second.raw_micros(), first.raw_micros() + 1);  // no seek on the second
}

TEST(AtomStore, CrossTimestepReadSeeks) {
    AtomStore store(small_spec());
    store.read({0, 0});
    const util::SimTime near = store.read({0, 1}).io_cost;  // sequential
    store.read({0, 2});
    const util::SimTime far = store.read({2, 0}).io_cost;  // jumps two steps
    EXPECT_GT(far.raw_micros(), near.raw_micros());
}

TEST(AtomStore, MaterializesVoxelData) {
    AtomStore store(small_spec(true));
    const ReadResult r = store.read({1, util::morton_encode(1, 1, 1)});
    ASSERT_NE(r.data, nullptr);
    EXPECT_EQ(r.data->extent(), store.grid().atom_side + 2 * store.grid().ghost);
}

TEST(AtomStore, MaterializedDataIsDeterministic) {
    AtomStore a(small_spec(true));
    AtomStore b(small_spec(true));
    const AtomId id{0, util::morton_encode(2, 0, 1)};
    const auto da = a.read(id).data;
    const auto db = b.read(id).data;
    EXPECT_EQ(da->at(3, 4, 5).velocity.x, db->at(3, 4, 5).velocity.x);
    EXPECT_EQ(da->at(3, 4, 5).pressure, db->at(3, 4, 5).pressure);
}

TEST(AtomId, KeyRoundTrip) {
    const AtomId id{17, 0xABCDEF};
    EXPECT_EQ(AtomId::from_key(id.key()), id);
}

TEST(AtomId, KeyOrdersByTimestepThenMorton) {
    const AtomId a{1, 999999}, b{2, 0};
    EXPECT_LT(a.key(), b.key());
    const AtomId c{1, 5}, d{1, 6};
    EXPECT_LT(c.key(), d.key());
}

}  // namespace
}  // namespace jaws::storage
