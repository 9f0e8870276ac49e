// Queries.
//
// A Turbulence query supplies a list of positions within one time step and an
// operation to evaluate at each (paper Sec. III-A/B). For scheduling, all
// that matters is the query's *atom footprint* — which atoms it touches and
// how many positions fall in each — so queries carry that footprint directly;
// explicit positions are optional and only populated for the example programs
// that compute real values. The pre-processor (sched module) turns footprints
// into sub-queries.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

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

    /// Atoms touched, with per-atom position counts. Morton-sorted per
    /// time step by the generator.
    std::vector<AtomRequest> footprint;

    /// Optional explicit positions (example programs only).
    std::vector<field::Vec3> positions;

    /// Total positions across the footprint.
    std::uint64_t total_positions() const noexcept {
        std::uint64_t n = 0;
        for (const auto& r : footprint) n += r.positions;
        return n;
    }
};

}  // namespace jaws::workload
