// Tests for the buffer cache and all replacement policies (cache/*).
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "cache/buffer_cache.h"
#include "cache/lru.h"
#include "cache/lru_k.h"
#include "cache/slru.h"
#include "cache/urc.h"

namespace jaws::cache {
namespace {

storage::AtomId atom(std::uint32_t t, std::uint64_t m) { return storage::AtomId{t, m}; }

// ---------- BufferCache semantics ----------

TEST(BufferCache, MissThenHit) {
    BufferCache cache(4, std::make_unique<LruPolicy>());
    EXPECT_FALSE(cache.lookup(atom(0, 1)));
    cache.insert(atom(0, 1));
    EXPECT_TRUE(cache.lookup(atom(0, 1)));
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(BufferCache, EvictsAtCapacity) {
    BufferCache cache(2, std::make_unique<LruPolicy>());
    cache.insert(atom(0, 1));
    cache.insert(atom(0, 2));
    const auto evicted = cache.insert(atom(0, 3));
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, atom(0, 1));  // LRU victim
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_FALSE(cache.contains(atom(0, 1)));
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(BufferCache, ReinsertResidentIsNoop) {
    BufferCache cache(2, std::make_unique<LruPolicy>());
    cache.insert(atom(0, 1));
    const auto evicted = cache.insert(atom(0, 1));
    EXPECT_FALSE(evicted.has_value());
    EXPECT_EQ(cache.size(), 1u);
}

TEST(BufferCache, LookupRefreshesRecency) {
    BufferCache cache(2, std::make_unique<LruPolicy>());
    cache.insert(atom(0, 1));
    cache.insert(atom(0, 2));
    cache.lookup(atom(0, 1));  // 1 becomes MRU
    const auto evicted = cache.insert(atom(0, 3));
    EXPECT_EQ(*evicted, atom(0, 2));
}

TEST(BufferCache, PayloadStoredAndRetrieved) {
    BufferCache cache(2, std::make_unique<LruPolicy>());
    cache.insert(atom(0, 1), nullptr);
    EXPECT_EQ(cache.payload(atom(0, 1)), nullptr);
    EXPECT_EQ(cache.payload(atom(0, 9)), nullptr);
}

TEST(BufferCache, ClearEmptiesEverything) {
    BufferCache cache(4, std::make_unique<LruPolicy>());
    cache.insert(atom(0, 1));
    cache.insert(atom(0, 2));
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.contains(atom(0, 1)));
    // Policy state was cleared too: filling again must not assert/evict wrong.
    cache.insert(atom(0, 1));
    cache.insert(atom(0, 2));
    EXPECT_EQ(cache.size(), 2u);
}

TEST(BufferCache, CapacityAtLeastOne) {
    BufferCache cache(0, std::make_unique<LruPolicy>());
    EXPECT_EQ(cache.capacity(), 1u);
}

TEST(BufferCache, HitRateComputation) {
    BufferCache cache(4, std::make_unique<LruPolicy>());
    cache.lookup(atom(0, 1));  // miss
    cache.insert(atom(0, 1));
    cache.lookup(atom(0, 1));  // hit
    cache.lookup(atom(0, 1));  // hit
    EXPECT_NEAR(cache.stats().hit_rate(), 2.0 / 3.0, 1e-12);
}

TEST(BufferCache, OverheadMeasured) {
    BufferCache cache(2, std::make_unique<LruPolicy>());
    for (std::uint64_t i = 0; i < 100; ++i) {
        if (!cache.lookup(atom(0, i % 4))) cache.insert(atom(0, i % 4));
    }
    EXPECT_GT(cache.stats().policy_overhead_ns, 0u);
}

// ---------- LRU-K ----------

TEST(LruK, ScanResistance) {
    // Hot atoms referenced >= K times survive a one-shot scan.
    BufferCache cache(4, std::make_unique<LruKPolicy>(2));
    const auto hot1 = atom(0, 100), hot2 = atom(0, 101);
    cache.insert(hot1);
    cache.insert(hot2);
    cache.lookup(hot1);
    cache.lookup(hot2);  // both now have 2 references
    // One-shot scan through 6 cold atoms.
    for (std::uint64_t i = 0; i < 6; ++i) cache.insert(atom(1, i));
    EXPECT_TRUE(cache.contains(hot1));
    EXPECT_TRUE(cache.contains(hot2));
}

TEST(LruK, SingleReferenceVictimIsOldest) {
    BufferCache cache(3, std::make_unique<LruKPolicy>(2));
    cache.insert(atom(0, 1));
    cache.insert(atom(0, 2));
    cache.insert(atom(0, 3));
    const auto evicted = cache.insert(atom(0, 4));
    EXPECT_EQ(*evicted, atom(0, 1));
}

TEST(LruK, RetainedHistorySurvivesEviction) {
    // An atom evicted and quickly re-admitted keeps its K-distance rank.
    BufferCache cache(2, std::make_unique<LruKPolicy>(2, 16));
    const auto a = atom(0, 1);
    cache.insert(a);
    cache.lookup(a);
    cache.lookup(a);      // a has rich history
    cache.insert(atom(0, 2));
    cache.insert(atom(0, 3));  // evicts a (or 2) — fills cache with cold atoms
    // Re-admit a: history says it's hot, so the next insert evicts a cold one.
    if (!cache.contains(a)) cache.insert(a);
    cache.lookup(a);
    const auto evicted = cache.insert(atom(0, 4));
    ASSERT_TRUE(evicted.has_value());
    EXPECT_NE(*evicted, a);
}

TEST(LruK, KEqualsOneBehavesLikeLru) {
    BufferCache cache(2, std::make_unique<LruKPolicy>(1));
    cache.insert(atom(0, 1));
    cache.insert(atom(0, 2));
    cache.lookup(atom(0, 1));
    const auto evicted = cache.insert(atom(0, 3));
    EXPECT_EQ(*evicted, atom(0, 2));
}

// ---------- SLRU ----------

TEST(Slru, RunBoundaryPromotesFrequent) {
    auto policy = std::make_unique<SlruPolicy>(10, 0.2);  // protected cap = 2
    SlruPolicy* raw = policy.get();
    BufferCache cache(10, std::move(policy));
    for (std::uint64_t i = 0; i < 5; ++i) cache.insert(atom(0, i));
    // Atom 3 is the clear frequency winner this run.
    for (int i = 0; i < 5; ++i) cache.lookup(atom(0, 3));
    cache.lookup(atom(0, 4));
    cache.run_boundary();
    EXPECT_EQ(raw->protected_size(), 2u);
}

TEST(Slru, ProtectedSurvivesProbationaryChurn) {
    auto policy = std::make_unique<SlruPolicy>(4, 0.25);  // protected cap = 1
    BufferCache cache(4, std::move(policy));
    const auto hot = atom(0, 99);
    cache.insert(hot);
    for (int i = 0; i < 10; ++i) cache.lookup(hot);
    cache.run_boundary();  // hot promoted
    // Churn many cold atoms through the probationary segment.
    for (std::uint64_t i = 0; i < 20; ++i) cache.insert(atom(1, i));
    EXPECT_TRUE(cache.contains(hot));
}

TEST(Slru, DemotedAtomGoesToProbationaryMru) {
    auto policy = std::make_unique<SlruPolicy>(4, 0.25);  // protected cap = 1
    SlruPolicy* raw = policy.get();
    BufferCache cache(4, std::move(policy));
    const auto a = atom(0, 1), cold1 = atom(0, 2), hot = atom(0, 3);
    cache.insert(a);
    for (int i = 0; i < 3; ++i) cache.lookup(a);
    cache.insert(cold1);
    cache.insert(hot);
    cache.run_boundary();  // a is the run's frequency winner -> protected
    EXPECT_EQ(raw->protected_size(), 1u);
    for (int i = 0; i < 5; ++i) cache.lookup(hot);
    cache.run_boundary();  // hot displaces a; a re-enters probationary at MRU
    EXPECT_EQ(raw->protected_size(), 1u);
    // Probationary is now [a (MRU), cold1 (LRU)]: cold1 evicts before a.
    cache.insert(atom(1, 10));  // fills to capacity 4
    const auto evicted = cache.insert(atom(2, 0));
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, cold1);
}

TEST(Slru, VictimFromProbationaryFirst) {
    auto policy = std::make_unique<SlruPolicy>(3, 0.34);  // protected cap = 1
    BufferCache cache(3, std::move(policy));
    const auto hot = atom(0, 7);
    cache.insert(hot);
    for (int i = 0; i < 4; ++i) cache.lookup(hot);
    cache.run_boundary();
    cache.insert(atom(0, 1));
    cache.insert(atom(0, 2));
    const auto evicted = cache.insert(atom(0, 3));
    ASSERT_TRUE(evicted.has_value());
    EXPECT_NE(*evicted, hot);
}

// ---------- URC ----------

/// Scripted oracle for URC tests.
class FakeOracle final : public UtilityOracle {
  public:
    double atom_utility(const storage::AtomId& a) const override {
        const auto it = atom_utilities.find(a);
        return it == atom_utilities.end() ? 0.0 : it->second;
    }
    double timestep_mean_utility(std::uint32_t t) const override {
        const auto it = step_means.find(t);
        return it == step_means.end() ? 0.0 : it->second;
    }

    std::map<storage::AtomId, double> atom_utilities;
    std::map<std::uint32_t, double> step_means;
};

TEST(Urc, EvictsLowestMeanTimestepFirst) {
    FakeOracle oracle;
    oracle.step_means[0] = 10.0;
    oracle.step_means[1] = 1.0;  // step 1 is the losing time step
    oracle.atom_utilities[atom(0, 1)] = 5.0;
    oracle.atom_utilities[atom(1, 1)] = 50.0;  // high own utility, low step
    BufferCache cache(2, std::make_unique<UrcPolicy>(oracle));
    cache.insert(atom(0, 1));
    cache.insert(atom(1, 1));
    const auto evicted = cache.insert(atom(0, 2));
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, atom(1, 1));
}

TEST(Urc, WithinStepEvictsLowestUtility) {
    FakeOracle oracle;
    oracle.step_means[0] = 5.0;
    oracle.atom_utilities[atom(0, 1)] = 1.0;
    oracle.atom_utilities[atom(0, 2)] = 9.0;
    BufferCache cache(2, std::make_unique<UrcPolicy>(oracle));
    cache.insert(atom(0, 1));
    cache.insert(atom(0, 2));
    const auto evicted = cache.insert(atom(0, 3));
    EXPECT_EQ(*evicted, atom(0, 1));
}

TEST(Urc, RecencyBreaksZeroUtilityTies) {
    FakeOracle oracle;  // everything zero
    BufferCache cache(2, std::make_unique<UrcPolicy>(oracle));
    cache.insert(atom(0, 1));
    cache.insert(atom(0, 2));
    cache.lookup(atom(0, 1));  // refresh 1
    const auto evicted = cache.insert(atom(0, 3));
    EXPECT_EQ(*evicted, atom(0, 2));
}

TEST(Urc, NullOracleBehaviourViaZeroUtilities) {
    FakeOracle oracle;
    BufferCache cache(3, std::make_unique<UrcPolicy>(oracle));
    for (std::uint64_t i = 0; i < 10; ++i) {
        if (!cache.lookup(atom(0, i % 5))) cache.insert(atom(0, i % 5));
    }
    EXPECT_EQ(cache.size(), 3u);
}

}  // namespace
}  // namespace jaws::cache
