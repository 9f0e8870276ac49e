// Tests for query pre-processing into sub-queries (sched/subquery.h).
#include <gtest/gtest.h>

#include <algorithm>

#include "sched/subquery.h"
#include "util/morton.h"

namespace jaws::sched {
namespace {

workload::Query query_with_atoms(const std::vector<util::Coord3>& coords,
                                 std::uint64_t positions_each = 10) {
    workload::Query q;
    q.id = 1;
    q.timestep = 2;
    for (const auto& c : coords)
        q.footprint.push_back(
            workload::AtomRequest{{2, util::morton_encode(c)}, positions_each});
    std::sort(q.footprint.begin(), q.footprint.end(),
              [](const workload::AtomRequest& a, const workload::AtomRequest& b) {
                  return a.atom.morton < b.atom.morton;
              });
    return q;
}

TEST(Preprocess, OneSubQueryPerFootprintAtom) {
    const auto q = query_with_atoms({{0, 0, 0}, {1, 0, 0}, {5, 5, 5}});
    const auto subs = preprocess(q, util::SimTime::from_millis(7));
    ASSERT_EQ(subs.size(), 3u);
    for (const auto& s : subs) {
        EXPECT_EQ(s.query, q.id);
        EXPECT_EQ(s.positions, 10u);
        EXPECT_EQ(s.enqueue_time.raw_micros(), 7000);
        EXPECT_EQ(s.atom.timestep, 2u);
    }
}

TEST(Preprocess, PreservesMortonOrder) {
    const auto q = query_with_atoms({{3, 3, 3}, {0, 0, 0}, {1, 1, 1}});
    const auto subs = preprocess(q, util::SimTime::zero());
    EXPECT_TRUE(std::is_sorted(subs.begin(), subs.end(),
                               [](const SubQuery& a, const SubQuery& b) {
                                   return a.atom.morton < b.atom.morton;
                               }));
}

TEST(Preprocess, SingleAtomHasNoSupports) {
    const auto q = query_with_atoms({{4, 4, 4}});
    const auto subs = preprocess(q, util::SimTime::zero());
    ASSERT_EQ(subs.size(), 1u);
    EXPECT_TRUE(subs[0].supports.empty());
}

TEST(Preprocess, AdjacentAtomsGainDownwardSupports) {
    // Two atoms adjacent along x: the higher-coordinate one owns the shared
    // face and lists its -x neighbour as support; the lower one does not —
    // so a Morton-ordered pass has always just read what a spill needs.
    const auto q = query_with_atoms({{2, 2, 2}, {3, 2, 2}});
    const auto subs = preprocess(q, util::SimTime::zero());
    ASSERT_EQ(subs.size(), 2u);
    const SubQuery& lower =
        subs[0].atom.morton == util::morton_encode(2, 2, 2) ? subs[0] : subs[1];
    const SubQuery& upper =
        subs[0].atom.morton == util::morton_encode(3, 2, 2) ? subs[0] : subs[1];
    const SupportCodes codes = support_codes(upper.atom, upper.supports);
    ASSERT_EQ(codes.size(), 1u);
    EXPECT_EQ(codes[0], util::morton_encode(2, 2, 2));
    EXPECT_TRUE(lower.supports.empty());
}

TEST(Preprocess, NonAdjacentAtomsNoSupports) {
    const auto q = query_with_atoms({{0, 0, 0}, {5, 5, 5}});
    for (const auto& s : preprocess(q, util::SimTime::zero()))
        EXPECT_TRUE(s.supports.empty());
}

TEST(Preprocess, SupportsOnlyWithinFootprint) {
    // A 2x1x1 bar: supports never point to atoms outside the footprint.
    const auto q = query_with_atoms({{1, 1, 1}, {2, 1, 1}});
    for (const auto& s : preprocess(q, util::SimTime::zero())) {
        for (const std::uint64_t code : support_codes(s.atom, s.supports)) {
            const bool in_footprint = std::any_of(
                q.footprint.begin(), q.footprint.end(),
                [code](const workload::AtomRequest& r) { return r.atom.morton == code; });
            ASSERT_TRUE(in_footprint);
        }
    }
}

TEST(Preprocess, DenseBlockSupportsCountMatchesFaces) {
    // A full 2x2x2 block: each atom has exactly three +direction neighbours
    // inside the block at the low corner, fewer elsewhere; the total number
    // of support entries equals the number of interior faces (12 for 2^3).
    std::vector<util::Coord3> coords;
    for (std::uint32_t x = 0; x < 2; ++x)
        for (std::uint32_t y = 0; y < 2; ++y)
            for (std::uint32_t z = 0; z < 2; ++z) coords.push_back({x, y, z});
    const auto q = query_with_atoms(coords);
    std::size_t total_supports = 0;
    for (const auto& s : preprocess(q, util::SimTime::zero()))
        total_supports += s.supports.size();
    EXPECT_EQ(total_supports, 12u);
}

TEST(Preprocess, EmptyFootprintYieldsNothing) {
    workload::Query q;
    EXPECT_TRUE(preprocess(q, util::SimTime::zero()).empty());
}

}  // namespace
}  // namespace jaws::sched
