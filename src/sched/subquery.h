// Sub-queries: the scheduler's unit of work.
//
// The pre-processor splits every query into sub-queries — the subsets of its
// positions that fall within a single atom (paper Sec. III-B). Sub-queries of
// one query can execute in any order, and the query completes when all of
// them have; sub-queries of *different* queries that touch the same atom are
// co-scheduled in one pass over that atom's data. This header defines the
// sub-query record and the pre-processing step.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/atom.h"
#include "util/sim_time.h"
#include "workload/query.h"

namespace jaws::sched {

/// Morton codes of a sub-query's kernel-support atoms, stored inline. Each
/// shared face is charged to the higher-coordinate atom (see preprocess), so
/// the supports are the x-1, y-1 and z-1 face neighbours: at most three.
class Supports {
  public:
    static constexpr std::size_t kMax = 3;

    void push_back(std::uint64_t code) noexcept {
        assert(size_ < kMax);
        codes_[size_++] = code;
    }
    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }
    std::uint64_t operator[](std::size_t i) const noexcept {
        assert(i < size_);
        return codes_[i];
    }
    const std::uint64_t* begin() const noexcept { return codes_.data(); }
    const std::uint64_t* end() const noexcept { return codes_.data() + size_; }

  private:
    std::array<std::uint64_t, kMax> codes_{};
    std::uint8_t size_ = 0;
};

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
struct SubQuery {
    workload::QueryId query = 0;
    storage::AtomId atom;
    std::uint64_t positions = 0;
    util::SimTime enqueue_time;  ///< When it entered the workload queue (for E(i)).
    /// Completion-time guarantee of the owning query (QoS mode, paper
    /// Sec. VII); INT64_MAX when no guarantee was requested.
    util::SimTime deadline{INT64_MAX};
    Supports supports;  ///< Morton codes of kernel-support atoms.
};

/// Split `query` into per-atom sub-queries stamped with `now`, appended to
/// `out` (a buffer the caller reuses, so splitting allocates nothing once it
/// has grown). The query's footprint is already Morton-sorted per time step,
/// so the appended list is too — preserving the paper's Morton-order
/// evaluation property. Each sub-query's supports are the face-neighbour
/// atoms of its atom that also carry positions of this query: the kernel
/// window of a contiguous position cloud spills exactly into the adjacent
/// occupied atoms.
void preprocess(const workload::Query& query, util::SimTime now, std::vector<SubQuery>& out);

/// Value-returning form of preprocess (tests and benchmarks).
inline std::vector<SubQuery> preprocess(const workload::Query& query, util::SimTime now) {
    std::vector<SubQuery> out;
    preprocess(query, now, out);
    return out;
}

}  // namespace jaws::sched
