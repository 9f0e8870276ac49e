// util::SlotIndex: unit tests plus a property test against a
// std::unordered_map oracle (tests/proptest.h).
//
// The property drives one index from empty (so every growth step runs)
// through random inserts, erases, finds and clears, and after every step
// calls audit() and checks every key the oracle holds. Besides fully random
// keys it draws keys built to share one home cell at every table size (long
// probe runs, where erase must shift cells back) and keys whose home is the
// last cell at every table size (runs that wrap past the end of the table).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "proptest.h"
#include "util/contracts.h"
#include "util/slot_index.h"

namespace jaws {
namespace {

using util::SlotIndex;

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

}  // namespace
}  // namespace jaws
