// Sub-queries: the scheduler's unit of work.
//
// The pre-processor splits every query into sub-queries — the subsets of its
// positions that fall within a single atom (paper Sec. III-B). Sub-queries of
// one query can execute in any order, and the query completes when all of
// them have; sub-queries of *different* queries that touch the same atom are
// co-scheduled in one pass over that atom's data. This header defines the
// sub-query record and the pre-processing step.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <type_traits>
#include <vector>

#include "storage/atom.h"
#include "util/morton.h"
#include "util/sim_time.h"
#include "workload/query.h"

namespace jaws::sched {

/// Which face neighbours of a sub-query's atom are kernel-support atoms, as
/// a 3-bit mask. Each shared face is charged to the higher-coordinate atom
/// (see preprocess), so the supports are among the x-1, y-1 and z-1 face
/// neighbours, and every sub-query of one atom draws from the same three.
/// support_codes() derives their Morton codes.
class Supports {
  public:
    static constexpr std::size_t kMax = 3;

    /// Mark the lower neighbour along `axis` (0 = x, 1 = y, 2 = z).
    void add(unsigned axis) noexcept {
        assert(axis < kMax);
        mask_ = static_cast<std::uint8_t>(mask_ | (1u << axis));
    }
    bool has(unsigned axis) const noexcept { return ((mask_ >> axis) & 1u) != 0; }
    bool empty() const noexcept { return mask_ == 0; }
    std::size_t size() const noexcept { return static_cast<std::size_t>(std::popcount(mask_)); }
    /// The union of two sub-queries' supports (of the same atom).
    Supports& operator|=(Supports o) noexcept {
        mask_ = static_cast<std::uint8_t>(mask_ | o.mask_);
        return *this;
    }

  private:
    std::uint8_t mask_ = 0;
};

/// Morton codes of kernel-support atoms, held inline.
class SupportCodes {
  public:
    void push_back(std::uint64_t code) noexcept {
        assert(size_ < Supports::kMax);
        codes_[size_++] = code;
    }
    /// Put the codes in ascending order. The unused slots hold the largest
    /// code, so sorting all kMax slots leaves them last.
    void sort() noexcept { std::sort(codes_.begin(), codes_.end()); }
    std::size_t size() const noexcept { return size_; }
    std::uint64_t operator[](std::size_t i) const noexcept {
        assert(i < size_);
        return codes_[i];
    }
    const std::uint64_t* begin() const noexcept { return codes_.data(); }
    const std::uint64_t* end() const noexcept { return codes_.data() + size_; }

  private:
    static constexpr std::uint64_t kUnused = std::numeric_limits<std::uint64_t>::max();
    std::array<std::uint64_t, Supports::kMax> codes_{kUnused, kUnused, kUnused};
    std::uint8_t size_ = 0;
};

/// Morton codes of the support atoms `supports` marks around `atom`, in axis
/// order (x-1, y-1, z-1).
inline SupportCodes support_codes(const storage::AtomId& atom, Supports supports) noexcept {
    SupportCodes out;
    for (unsigned axis = 0; axis < Supports::kMax; ++axis) {
        if (!supports.has(axis)) continue;
        const std::optional<std::uint64_t> below = util::morton_lower_neighbor(atom.morton, axis);
        assert(below);  // preprocess marks only neighbours that exist
        out.push_back(*below);
    }
    return out;
}

/// One query's positions inside one atom, together with the *support atoms*
/// its kernel of computation needs: positions near an atom boundary draw
/// interpolation samples from face-neighbour atoms (paper Sec. V — "
/// computations such as Lagrangian interpolation may require that a position
/// accesses data from multiple atoms that are nearby in space"). Executing
/// the sub-query requires every support atom to be memory-resident; the
/// engine reads absent supports without draining their own workload queues.
/// Schedulers that batch spatially adjacent atoms of one time step (the
/// two-level framework) therefore avoid redundant peripheral reads that
/// single-atom contention chasing pays repeatedly.
///
/// Every split, enqueue, drain and batch copies sub-queries, so the record
/// is kept small: the supports are a one-byte mask, not a list of codes, and
/// the position count is 32 bits (admission rejects larger footprint
/// entries).
struct SubQuery {
    workload::QueryId query = 0;
    storage::AtomId atom;
    std::uint32_t positions = 0;
    Supports supports;  ///< Kernel-support face neighbours.
    util::SimTime enqueue_time;  ///< When it entered the workload queue (for E(i)).
    /// Completion-time guarantee of the owning query (QoS mode, paper
    /// Sec. VII); SimTime::max() when no guarantee was requested.
    util::SimTime deadline = util::SimTime::max();
};
static_assert(sizeof(SubQuery) == 48, "SubQuery is copied on every hot-path hop: keep it small");
static_assert(std::is_trivially_copyable_v<SubQuery>);
static_assert(workload::kMaxAtomPositions ==
              std::numeric_limits<decltype(SubQuery::positions)>::max());

/// Split `query` into per-atom sub-queries stamped with `now`, appended to
/// `out` (a buffer the caller reuses, so splitting allocates nothing once it
/// has grown). The query's footprint is already Morton-sorted per time step,
/// so the appended list is too — preserving the paper's Morton-order
/// evaluation property. Each sub-query's supports are the face-neighbour
/// atoms of its atom that also carry positions of this query: the kernel
/// window of a contiguous position cloud spills exactly into the adjacent
/// occupied atoms. Every footprint entry must hold at most
/// workload::kMaxAtomPositions positions.
void preprocess(const workload::Query& query, util::SimTime now, std::vector<SubQuery>& out);

/// Value-returning form of preprocess (tests and benchmarks).
inline std::vector<SubQuery> preprocess(const workload::Query& query, util::SimTime now) {
    std::vector<SubQuery> out;
    preprocess(query, now, out);
    return out;
}

}  // namespace jaws::sched
