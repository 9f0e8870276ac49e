// Tests for the strong identifier wrappers (util/typed_id.h).
#include <gtest/gtest.h>

#include <concepts>
#include <cstdint>
#include <limits>
#include <sstream>
#include <type_traits>

#include "util/typed_id.h"

namespace jaws::util {
namespace {

// The point of the types is what does NOT compile: raw integers do not
// convert in, ids do not convert out, and distinct id spaces do not compare
// or combine. Pin all of that at compile time.
static_assert(!std::is_convertible_v<std::uint64_t, AtomKey>,
              "construction from the raw representation must be explicit");
static_assert(!std::is_convertible_v<AtomKey, std::uint64_t>,
              "extraction must go through value()");
static_assert(!std::is_convertible_v<AtomKey, NodeIndex>,
              "id spaces must not interconvert");
static_assert(!std::is_convertible_v<NodeIndex, ChannelIndex>,
              "id spaces must not interconvert");
static_assert(!std::equality_comparable_with<AtomKey, NodeIndex>,
              "cross-space comparison must not compile");

template <class A, class B>
concept Addable = requires(A a, B b) { a + b; };
static_assert(!Addable<AtomKey, AtomKey>,
              "ids are identities, not quantities: no arithmetic");
static_assert(!Addable<AtomKey, std::uint64_t>,
              "ids must not mix with raw integers arithmetically");

static_assert(std::is_same_v<NodeIndex::rep, std::uint32_t>,
              "node indices are 32-bit on purpose (event-queue sources)");
static_assert(std::is_trivially_copyable_v<AtomKey> && sizeof(AtomKey) == 8,
              "the wrapper must stay zero-cost");

TEST(TypedId, ValueRoundTrips) {
    const AtomKey k{0x0123456789ABCDEFULL};
    EXPECT_EQ(k.value(), 0x0123456789ABCDEFULL);
    EXPECT_EQ(NodeIndex{}.value(), 0u);
    EXPECT_EQ(ChannelIndex{3}.value(), 3u);
}

TEST(TypedId, ComparesWithinOneSpace) {
    EXPECT_EQ(NodeIndex{2}, NodeIndex{2});
    EXPECT_NE(NodeIndex{2}, NodeIndex{3});
    EXPECT_LT(AtomKey{1}, AtomKey{2});
    EXPECT_GE(ChannelIndex{5}, ChannelIndex{5});
}

TEST(TypedId, StreamsItsRawValue) {
    std::ostringstream os;
    os << NodeIndex{17} << "/" << AtomKey{9};
    EXPECT_EQ(os.str(), "17/9");
}

TEST(TypedId, NodeIndexBoundary) {
    // The 32-bit ceiling ClusterConfig::validate() guards.
    const NodeIndex last{std::numeric_limits<std::uint32_t>::max()};
    EXPECT_EQ(last.value(), std::numeric_limits<std::uint32_t>::max());
    EXPECT_GT(last, NodeIndex{0});
}

}  // namespace
}  // namespace jaws::util
