// util::SlotIndex, util::SlotPool and util::SlotMap: unit tests plus two
// property tests (tests/proptest.h).
//
// The first property drives one index from empty (so every growth step runs)
// through random inserts, erases, finds and clears against a
// std::unordered_map oracle, and after every step calls audit() and checks
// every key the oracle holds. Besides fully random keys it draws keys built
// to share one home cell at every table size (long probe runs, where erase
// must shift cells back) and keys whose home is the last cell at every table
// size (runs that wrap past the end of the table).
//
// The second drives one SlotMap from empty through the same operations
// against a std::map from key to slot plus a stack of free slots, and checks
// the recycling contract owners rely on: the slot an erase frees is the one
// the next insert takes, a reused slot keeps its element, and audit()
// passes after every step.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "proptest.h"
#include "util/contracts.h"
#include "util/slot_index.h"

namespace jaws {
namespace {

using util::SlotIndex;
using util::SlotMap;
using util::SlotPool;

/// Reports contract violations by count instead of aborting, so a broken
/// audit fails the property (and shrinks) rather than killing the binary.
class CountViolations {
  public:
    CountViolations()
        : previous_(util::set_contract_handler([](const char*, int, const char*,
                                                  const char*) {})) {}
    ~CountViolations() { util::set_contract_handler(previous_); }
    CountViolations(const CountViolations&) = delete;
    CountViolations& operator=(const CountViolations&) = delete;

  private:
    util::ContractHandler previous_;
};

/// The multiplier SlotIndex hashes with, and its inverse mod 2^64, so a test
/// can build the key whose product has chosen top bits (its home cell).
constexpr std::uint64_t kFibonacci = 0x9E3779B97F4A7C15ULL;
constexpr std::uint64_t inverse(std::uint64_t a) {
    std::uint64_t x = a;  // Newton's iteration doubles the correct low bits.
    for (int i = 0; i < 6; ++i) x *= 2 - a * x;
    return x;
}
constexpr std::uint64_t kFibonacciInverse = inverse(kFibonacci);
static_assert(kFibonacci * kFibonacciInverse == 1);

/// Largest table the property reaches is far below 2^kHomeBits cells, so
/// keys sharing their top kHomeBits product bits share a home at every size.
constexpr unsigned kHomeBits = 16;

/// A key whose hash product has top bits `top` (kHomeBits wide) and low
/// bits `low`.
std::uint64_t key_with_home(std::uint64_t top, std::uint64_t low) {
    return ((top << (64 - kHomeBits)) | low) * kFibonacciInverse;
}

TEST(SlotIndex, EmptyIndexFindsNothing) {
    SlotIndex index;
    EXPECT_TRUE(index.empty());
    EXPECT_EQ(index.find(0), SlotIndex::kNone);
    EXPECT_EQ(index.erase(7), SlotIndex::kNone);
    EXPECT_TRUE(index.audit());
}

TEST(SlotIndex, InsertFindEraseRoundTrip) {
    SlotIndex index;
    for (std::uint32_t i = 0; i < 1000; ++i) index.insert(std::uint64_t{i} * 977, i);
    EXPECT_EQ(index.size(), 1000u);
    EXPECT_TRUE(index.audit());
    for (std::uint32_t i = 0; i < 1000; ++i) EXPECT_EQ(index.find(std::uint64_t{i} * 977), i);
    EXPECT_EQ(index.find(1), SlotIndex::kNone);
    for (std::uint32_t i = 0; i < 1000; i += 2) EXPECT_EQ(index.erase(std::uint64_t{i} * 977), i);
    EXPECT_EQ(index.size(), 500u);
    EXPECT_TRUE(index.audit());
    for (std::uint32_t i = 0; i < 1000; ++i)
        EXPECT_EQ(index.find(std::uint64_t{i} * 977), i % 2 ? i : SlotIndex::kNone);
}

TEST(SlotIndex, EraseShiftsACollidingRunBack) {
    // Five keys share one home cell; erasing the first must leave the rest
    // reachable (a plain emptied cell would cut the run).
    SlotIndex index;
    for (std::uint32_t i = 0; i < 5; ++i) index.insert(key_with_home(1234, i), i);
    EXPECT_EQ(index.erase(key_with_home(1234, 0)), 0u);
    EXPECT_TRUE(index.audit());
    for (std::uint32_t i = 1; i < 5; ++i) EXPECT_EQ(index.find(key_with_home(1234, i)), i);
}

TEST(SlotIndex, RunsWrapPastTheLastCell) {
    SlotIndex index;
    const std::uint64_t last = (std::uint64_t{1} << kHomeBits) - 1;
    for (std::uint32_t i = 0; i < 6; ++i) index.insert(key_with_home(last, i), i);
    index.insert(key_with_home(0, 0), 6);  // home cell 0, displaced by the wrap
    EXPECT_TRUE(index.audit());
    EXPECT_EQ(index.erase(key_with_home(last, 2)), 2u);
    EXPECT_TRUE(index.audit());
    for (std::uint32_t i = 0; i < 6; ++i)
        EXPECT_EQ(index.find(key_with_home(last, i)), i == 2 ? SlotIndex::kNone : i);
    EXPECT_EQ(index.find(key_with_home(0, 0)), 6u);
}

TEST(SlotIndex, ClearKeepsTheIndexUsable) {
    SlotIndex index;
    for (std::uint32_t i = 0; i < 100; ++i) index.insert(i, i);
    index.clear();
    EXPECT_TRUE(index.empty());
    EXPECT_EQ(index.find(5), SlotIndex::kNone);
    index.insert(5, 42);
    EXPECT_EQ(index.find(5), 42u);
    EXPECT_TRUE(index.audit());
}

/// Random insert/erase/find/clear programs against an unordered_map oracle.
std::string matches_oracle(proptest::Gen& g) {
    CountViolations quiet;
    SlotIndex index;
    std::unordered_map<std::uint64_t, std::uint32_t> oracle;
    std::vector<std::uint64_t> drawn;  // keys used so far, to revisit
    std::uint32_t next_slot = 0;
    const auto draw_key = [&]() -> std::uint64_t {
        std::uint64_t key = 0;
        switch (g.below(5)) {
            case 0:  // a key seen before (present or erased)
                if (!drawn.empty()) return drawn[g.below(drawn.size())];
                key = g.u64();
                break;
            case 1:  // one shared home cell at every table size
                key = key_with_home(0x2A5B, g.below(48));
                break;
            case 2:  // home is the last cell: the run wraps to cell 0
                key = key_with_home((std::uint64_t{1} << kHomeBits) - 1, g.below(48));
                break;
            case 3:  // home is the first cell, where wrapped runs land
                key = key_with_home(0, g.below(16));
                break;
            default:
                key = g.u64();
                break;
        }
        drawn.push_back(key);
        return key;
    };
    const int steps = static_cast<int>(g.in_range(1, 400));
    for (int step = 0; step < steps; ++step) {
        const std::uint64_t op = g.below(100);
        const std::uint64_t key = draw_key();
        std::string what;
        if (op < 55) {
            what = "insert";
            if (!oracle.contains(key)) {
                oracle.emplace(key, next_slot);
                index.insert(key, next_slot++);
            }
        } else if (op < 80) {
            what = "erase";
            const auto it = oracle.find(key);
            const std::uint32_t expect = it == oracle.end() ? SlotIndex::kNone : it->second;
            if (it != oracle.end()) oracle.erase(it);
            if (index.erase(key) != expect)
                return "step " + std::to_string(step) + ": erase returned the wrong slot";
        } else if (op < 99) {
            what = "find";
            const auto it = oracle.find(key);
            const std::uint32_t expect = it == oracle.end() ? SlotIndex::kNone : it->second;
            if (index.find(key) != expect)
                return "step " + std::to_string(step) + ": find disagrees";
        } else {
            what = "clear";
            oracle.clear();
            index.clear();
        }
        if (!index.audit()) return "step " + std::to_string(step) + " (" + what + "): audit failed";
        if (index.size() != oracle.size())
            return "step " + std::to_string(step) + " (" + what + "): size " +
                   std::to_string(index.size()) + " != oracle " + std::to_string(oracle.size());
        // Every key the oracle holds is still found at its slot.
        for (const std::uint64_t k : drawn) {
            const auto it = oracle.find(k);
            if (index.find(k) != (it == oracle.end() ? SlotIndex::kNone : it->second))
                return "step " + std::to_string(step) + " (" + what + "): key lost or resurrected";
        }
    }
    return "";
}

TEST(SlotIndex, MatchesUnorderedMapOracle) {
    const proptest::Outcome o = proptest::check(proptest::Config{}, matches_oracle);
    EXPECT_TRUE(o.ok) << o.message;
}

TEST(SlotPool, ReusesTheLastReleasedSlotWithItsElement) {
    SlotPool<int, 2> pool;  // 4-element chunks, so growth crosses chunks
    for (std::uint32_t i = 0; i < 10; ++i) {
        EXPECT_EQ(pool.acquire(), i);
        EXPECT_EQ(pool[i], 0);  // fresh slots are value-initialised
        pool[i] = static_cast<int>(100 + i);
    }
    int* seven = &pool[7];
    pool.release(3);
    pool.release(7);
    EXPECT_EQ(pool.size(), 8u);
    EXPECT_EQ(pool.slots(), 10u);
    EXPECT_FALSE(pool.live(7));
    EXPECT_TRUE(pool.audit());
    EXPECT_EQ(pool.acquire(), 7u);
    EXPECT_EQ(pool[7], 107);
    EXPECT_EQ(&pool[7], seven);  // chunks never move
    EXPECT_EQ(pool.acquire(), 3u);
    EXPECT_EQ(pool.acquire(), 10u);
    EXPECT_TRUE(pool.audit());
}

TEST(SlotPool, ClearHandsOutSlotsFromZeroAndKeepsElements) {
    SlotPool<int, 2> pool;
    for (int i = 0; i < 6; ++i) pool[pool.acquire()] = i + 1;
    pool.release(2);
    pool.clear();
    EXPECT_EQ(pool.size(), 0u);
    EXPECT_EQ(pool.slots(), 0u);
    EXPECT_TRUE(pool.audit());
    for (std::uint32_t i = 0; i < 7; ++i) {
        EXPECT_EQ(pool.acquire(), i);
        EXPECT_EQ(pool[i], i < 6 ? static_cast<int>(i) + 1 : 0);
    }
    EXPECT_TRUE(pool.audit());
}

TEST(SlotMap, StoresEachSlotsKeyAndRecyclesErasedSlots) {
    SlotMap<int> map;
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(42), SlotMap<int>::kNone);
    EXPECT_EQ(map.erase(42), SlotMap<int>::kNone);
    const auto a = map.insert(42);
    const auto b = map.insert(7);
    map[a] = 1;
    map[b] = 2;
    EXPECT_EQ(map.key(a), 42u);
    EXPECT_EQ(map.key(b), 7u);
    EXPECT_EQ(map.find(7), b);
    EXPECT_EQ(map.erase(42), a);
    EXPECT_FALSE(map.contains(42));
    EXPECT_EQ(map.size(), 1u);
    EXPECT_TRUE(map.audit());
    EXPECT_EQ(map.insert(9), a);  // the erased slot, element and all
    EXPECT_EQ(map[a], 1);
    EXPECT_EQ(map.key(a), 9u);
    EXPECT_TRUE(map.audit());
}

/// Random insert/erase/find/clear programs against a key -> slot oracle
/// plus a stack of free slots, checking last-in-first-out reuse and that a
/// reused slot keeps its element.
std::string recycles_like_a_stack(proptest::Gen& g) {
    CountViolations quiet;
    SlotMap<std::uint64_t, 2> map;  // 4-element chunks, so growth crosses chunks
    std::map<std::uint64_t, std::uint32_t> oracle;
    std::vector<std::uint32_t> free;      // the back is reused first
    std::vector<std::uint64_t> elements;  // last value written, per slot
    std::uint32_t fresh = 0;              // slots handed out since the last clear
    const int steps = static_cast<int>(g.in_range(1, 300));
    for (int step = 0; step < steps; ++step) {
        const std::uint64_t op = g.below(100);
        // A small key space, so erases and finds mostly hit.
        const std::uint64_t key = g.below(4) == 0 ? g.u64() : g.below(40);
        const std::string at = "step " + std::to_string(step);
        std::string what;
        if (op < 50) {
            what = "insert";
            if (!oracle.contains(key)) {
                const std::uint32_t expect = free.empty() ? fresh : free.back();
                const std::uint32_t slot = map.insert(key);
                if (slot != expect)
                    return at + ": insert took slot " + std::to_string(slot) + ", expected " +
                           std::to_string(expect) + " (last freed first)";
                if (free.empty())
                    ++fresh;
                else
                    free.pop_back();
                if (slot == elements.size()) elements.push_back(0);
                if (map[slot] != elements[slot])
                    return at + ": slot " + std::to_string(slot) + " lost its element";
                map[slot] = elements[slot] = g.u64();
                oracle.emplace(key, slot);
            }
        } else if (op < 80) {
            what = "erase";
            const auto it = oracle.find(key);
            const std::uint32_t expect = it == oracle.end() ? SlotIndex::kNone : it->second;
            if (map.erase(key) != expect) return at + ": erase returned the wrong slot";
            if (it != oracle.end()) {
                free.push_back(it->second);
                oracle.erase(it);
            }
        } else if (op < 98) {
            what = "find";
            const auto it = oracle.find(key);
            if (map.find(key) != (it == oracle.end() ? SlotIndex::kNone : it->second))
                return at + ": find disagrees";
        } else {
            what = "clear";
            map.clear();
            oracle.clear();
            free.clear();
            fresh = 0;
        }
        const std::string where = at + " (" + what + ")";
        if (!map.audit()) return where + ": audit failed";
        if (map.size() != oracle.size() || map.slots() != fresh)
            return where + ": size or slot count disagrees with the oracle";
        std::vector<bool> held(fresh, false);
        for (const auto& [k, slot] : oracle) {
            if (map.find(k) != slot || map.key(slot) != k || !map.live(slot))
                return where + ": key " + std::to_string(k) + " not at its slot";
            if (map[slot] != elements[slot])
                return where + ": slot " + std::to_string(slot) + " changed its element";
            held[slot] = true;
        }
        for (std::uint32_t s = 0; s < fresh; ++s)
            if (map.live(s) != held[s]) return where + ": a free slot reads as live";
    }
    return "";
}

TEST(SlotMap, RecyclesSlotsLastInFirstOutAgainstAStackOracle) {
    const proptest::Outcome o = proptest::check(proptest::Config{}, recycles_like_a_stack);
    EXPECT_TRUE(o.ok) << o.message;
}

}  // namespace
}  // namespace jaws
