// Strongly-typed identifiers.
//
// The cluster and storage layers juggle several integer identity spaces —
// clustered-index atom keys, node indices, disk channel indices — that were
// historically plain uint64_t/uint32_t/size_t and therefore silently
// interconvertible. A Morton code passed where a node index was expected
// compiles fine and corrupts routing. TypedId wraps each space in a distinct
// zero-cost type: construction from the raw representation is explicit,
// extraction goes through `value()`, and no arithmetic or cross-type
// conversion exists, so mixing two id spaces is a compile error. The
// `raw-id-api` and `id-mixing` analyzer passes (scripts/jaws_analyzer.py)
// enforce that public APIs in the linted modules use these types rather than
// raw integers.
//
// Weak aliases with a single producer and consumer (workload::QueryId,
// util::EventId) intentionally stay plain integers — they never cross a
// module boundary where confusion is possible.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <ostream>

namespace jaws::util {

/// A zero-cost strong wrapper over an integer representation. `Tag` is an
/// (incomplete) marker type that makes each instantiation a distinct type.
template <class Tag, class Rep>
class TypedId {
  public:
    using rep = Rep;

    constexpr TypedId() noexcept = default;
    explicit constexpr TypedId(Rep value) noexcept : value_(value) {}

    /// The raw representation, for indexing, serialization and slot-map keys.
    constexpr Rep value() const noexcept { return value_; }

    friend constexpr bool operator==(TypedId, TypedId) noexcept = default;
    friend constexpr auto operator<=>(TypedId, TypedId) noexcept = default;

    /// Stream output (gtest failure messages, bench logs).
    friend std::ostream& operator<<(std::ostream& os, TypedId id) {
        return os << id.value_;
    }

  private:
    Rep value_{};
};

/// Composite 64-bit clustered-index key of an atom — (timestep << 40) |
/// morton, produced by storage::AtomId::key(). Distinct from a bare Morton
/// code, which is a spatial coordinate, not an identity.
using AtomKey = TypedId<struct AtomKeyTag, std::uint64_t>;

/// Index of a node within a TurbulenceCluster, in [0, ClusterConfig::nodes).
/// 32-bit on purpose: event-queue sources are 32-bit, and
/// ClusterConfig::validate() rejects node counts that would not fit.
using NodeIndex = TypedId<struct NodeIndexTag, std::uint32_t>;

/// Index of an I/O channel within one node's DiskModel.
using ChannelIndex = TypedId<struct ChannelIndexTag, std::size_t>;

}  // namespace jaws::util
