// Queries.
//
// A Turbulence query supplies a list of positions within one time step and an
// operation to evaluate at each (paper Sec. III-A/B). For scheduling, all
// that matters is the query's *atom footprint* — which atoms it touches and
// how many positions fall in each — so queries carry that footprint directly;
// explicit positions are optional and only populated for runs that compute
// real values. The pre-processor (sched module) turns footprints into
// sub-queries.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "field/grid.h"
#include "field/interpolation.h"
#include "field/synthetic_field.h"
#include "storage/atom.h"
#include "storage/database_node.h"
#include "util/sim_time.h"

namespace jaws::workload {

using QueryId = std::uint64_t;
using JobId = std::uint64_t;
using UserId = std::uint32_t;

/// Sentinel for "not part of any job".
inline constexpr JobId kNoJob = ~JobId{0};

/// The most positions one footprint entry may hold: the scheduler keeps a
/// pending sub-query's count in 32 bits. Engine admission and
/// WorkloadSpec::validate reject larger counts.
inline constexpr std::uint64_t kMaxAtomPositions = std::numeric_limits<std::uint32_t>::max();

/// One atom touched by a query, with the number of query positions inside it.
struct AtomRequest {
    storage::AtomId atom;
    std::uint64_t positions = 0;
};

/// A single query: positions in one time step evaluated with one operation.
///
/// Layout, checked by core::require_footprints_fit wherever a job enters an
/// engine or a cluster, so that every consumer slices instead of searching:
/// - footprint entries are strictly ascending by Morton code, and every
///   entry's atom lies on `timestep`;
/// - explicit positions, when the query has them, are stored entry by entry:
///   footprint[i] owns the next footprint[i].positions points, each inside
///   that entry's atom, and within an atom the points keep the caller's
///   order (group_by_atom builds this).
struct Query {
    QueryId id = 0;
    JobId job = kNoJob;
    std::uint32_t seq_in_job = 0;  ///< Position within the job's sequence.
    UserId user = 0;
    std::uint32_t timestep = 0;
    storage::ComputeKind kind = storage::ComputeKind::kVelocity;
    field::InterpOrder order = field::InterpOrder::kLag4;

    /// Virtual gap between the predecessor query's completion and this
    /// query's submission (user think time). The first query of a job uses
    /// the job's arrival time instead.
    util::SimTime think_time;

    /// Atoms touched, with per-atom position counts (layout above).
    std::vector<AtomRequest> footprint;

    /// Optional explicit positions, grouped by footprint entry (layout
    /// above). Empty on descriptor-only queries.
    std::vector<field::Vec3> positions;

    /// Total positions across the footprint.
    std::uint64_t total_positions() const noexcept {
        std::uint64_t n = 0;
        for (const auto& r : footprint) n += r.positions;
        return n;
    }

    /// The explicit positions that the footprint entry of `atom` owns
    /// (requires the layout above): empty when the query has no positions or
    /// does not touch `atom`. Scans the footprint, O(entries).
    std::span<const field::Vec3> positions_in(const storage::AtomId& atom) const noexcept {
        if (positions.empty()) return {};
        std::size_t offset = 0;
        for (const AtomRequest& r : footprint) {
            if (r.atom == atom) return std::span(positions).subspan(offset, r.positions);
            offset += r.positions;
        }
        return {};
    }
};

/// Points grouped by atom: a footprint and positions in Query's layout, and
/// where each grouped point came from.
struct AtomGrouping {
    std::vector<AtomRequest> footprint;  ///< Strictly ascending Morton codes.
    std::vector<field::Vec3> positions;  ///< Grouped by footprint entry.
    /// order[k] is the caller's index of positions[k]; within an atom the
    /// indices ascend.
    std::vector<std::size_t> order;
};

/// Group `positions` by the atom of `grid` that holds each one, at
/// `timestep`. Throws std::invalid_argument naming the first position with a
/// coordinate that is not finite (no atom holds it).
AtomGrouping group_by_atom(const field::GridSpec& grid, std::uint32_t timestep,
                           std::span<const field::Vec3> positions);

}  // namespace jaws::workload
