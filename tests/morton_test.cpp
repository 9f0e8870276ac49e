// Unit and property tests for 3-D Morton encoding (util/morton.h).
#include <gtest/gtest.h>

#include <algorithm>

#include "util/morton.h"
#include "util/rng.h"

namespace jaws::util {
namespace {

TEST(Morton, EncodeOrigin) { EXPECT_EQ(morton_encode(0, 0, 0), 0u); }

TEST(Morton, EncodeUnitAxes) {
    // Bit layout: x in bit 0, y in bit 1, z in bit 2.
    EXPECT_EQ(morton_encode(1, 0, 0), 0b001u);
    EXPECT_EQ(morton_encode(0, 1, 0), 0b010u);
    EXPECT_EQ(morton_encode(0, 0, 1), 0b100u);
    EXPECT_EQ(morton_encode(1, 1, 1), 0b111u);
}

TEST(Morton, EncodeSecondBits) {
    EXPECT_EQ(morton_encode(2, 0, 0), 0b001000u);
    EXPECT_EQ(morton_encode(0, 2, 0), 0b010000u);
    EXPECT_EQ(morton_encode(0, 0, 2), 0b100000u);
    EXPECT_EQ(morton_encode(3, 3, 3), 0b111111u);
}

TEST(Morton, SpreadCompactInverse) {
    Rng rng(100);
    for (int i = 0; i < 1000; ++i) {
        const auto v = static_cast<std::uint32_t>(rng()) & 0x1fffff;
        EXPECT_EQ(morton_compact(morton_spread(v)), v);
    }
}

TEST(Morton, SpreadBitsEveryThird) {
    const std::uint64_t s = morton_spread(0x1fffff);
    EXPECT_EQ(s, 0x1249249249249249ULL);
}

TEST(Morton, MaxCoordinateRoundTrip) {
    const std::uint32_t maxc = (1u << kMortonBitsPerAxis) - 1;
    const Coord3 c{maxc, maxc, maxc};
    EXPECT_EQ(morton_decode(morton_encode(c)), c);
}

class MortonRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MortonRoundTrip, DecodeEncodeIdentity) {
    Rng rng(GetParam());
    for (int i = 0; i < 2000; ++i) {
        const auto x = static_cast<std::uint32_t>(rng.uniform_u64(1u << 21));
        const auto y = static_cast<std::uint32_t>(rng.uniform_u64(1u << 21));
        const auto z = static_cast<std::uint32_t>(rng.uniform_u64(1u << 21));
        const Coord3 decoded = morton_decode(morton_encode(x, y, z));
        ASSERT_EQ(decoded.x, x);
        ASSERT_EQ(decoded.y, y);
        ASSERT_EQ(decoded.z, z);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MortonRoundTrip, ::testing::Values(1, 2, 3, 4, 5));

TEST(Morton, OrderPreservesLocalityWithinOctant) {
    // All codes of the low octant [0,2)^3 are below those of [2,4)^3's
    // corresponding cells shifted by one level.
    const std::uint64_t max_low = morton_encode(1, 1, 1);
    const std::uint64_t min_high = morton_encode(2, 0, 0);
    EXPECT_LT(max_low, min_high);
}

TEST(MortonBoxCover, SingleCell) {
    const auto cover = morton_box_cover({3, 4, 5}, {3, 4, 5});
    ASSERT_EQ(cover.size(), 1u);
    EXPECT_EQ(cover[0], morton_encode(3, 4, 5));
}

TEST(MortonBoxCover, EmptyWhenInverted) {
    EXPECT_TRUE(morton_box_cover({2, 0, 0}, {1, 5, 5}).empty());
}

TEST(MortonBoxCover, CountAndSorted) {
    const auto cover = morton_box_cover({1, 2, 3}, {4, 4, 5});
    EXPECT_EQ(cover.size(), 4u * 3u * 3u);
    EXPECT_TRUE(std::is_sorted(cover.begin(), cover.end()));
    // No duplicates.
    EXPECT_EQ(std::adjacent_find(cover.begin(), cover.end()), cover.end());
}

TEST(MortonBoxCover, ContainsExactlyBoxCells) {
    const auto cover = morton_box_cover({0, 0, 0}, {2, 1, 1});
    for (const std::uint64_t code : cover) {
        const Coord3 c = morton_decode(code);
        EXPECT_LE(c.x, 2u);
        EXPECT_LE(c.y, 1u);
        EXPECT_LE(c.z, 1u);
    }
}

TEST(MortonLowerNeighbor, MatchesDecodeAndReencode) {
    Rng rng(11);
    const std::uint32_t maxc = (1u << kMortonBitsPerAxis) - 1;
    for (int i = 0; i < 2000; ++i) {
        // Mix the lattice extremes (0 and max per axis) with random interiors.
        const auto draw = [&] {
            const std::uint64_t pick = rng.uniform_u64(4);
            return pick == 0 ? 0u
                   : pick == 1 ? maxc
                               : static_cast<std::uint32_t>(rng.uniform_u64(1u << 21));
        };
        const Coord3 c{draw(), draw(), draw()};
        const std::uint64_t code = morton_encode(c);
        const std::uint32_t at[3] = {c.x, c.y, c.z};
        for (unsigned axis = 0; axis < 3; ++axis) {
            const std::optional<std::uint64_t> below = morton_lower_neighbor(code, axis);
            if (at[axis] == 0) {
                ASSERT_FALSE(below.has_value());
                continue;
            }
            Coord3 expect = c;
            (axis == 0 ? expect.x : axis == 1 ? expect.y : expect.z) -= 1;
            ASSERT_TRUE(below.has_value());
            ASSERT_EQ(*below, morton_encode(expect));
        }
    }
}

}  // namespace
}  // namespace jaws::util
