// Malformed queries for the check where a job enters an engine or a cluster
// (core::require_footprints_fit).
//
// One well-formed materialised job, and copies of it in which the query
// breaks exactly one rule: a rule of workload::Query's layout, or the kernel
// fit that materialised runs need. The engine and the cluster tests run
// every copy with materialize_data set and grid.ghost = 2, and expect a
// rejection naming the query, the job and the rule.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "field/grid.h"
#include "field/interpolation.h"
#include "workload/generator.h"
#include "workload/job.h"

namespace jaws::layout_cases {

/// Job 5 holding query 50 on time step 1: four positions in each of atoms 0,
/// 1 and 200 (node 0 and node 1 of a four-node cluster on a 512-atom step),
/// materialised in Query's layout.
inline workload::Workload well_formed(const field::GridSpec& grid) {
    workload::Workload w;
    workload::Job& job = w.jobs.emplace_back();
    job.id = 5;
    job.type = workload::JobType::kBatched;
    workload::Query& q = job.queries.emplace_back();
    q.id = 50;
    q.job = job.id;
    q.timestep = 1;
    for (const std::uint64_t code : {0, 1, 200})
        q.footprint.push_back({storage::AtomId{q.timestep, code}, 4});
    workload::materialize_positions(w, grid, 3);
    return w;
}

/// A copy of well_formed() whose query breaks one rule.
struct Case {
    std::string rule;     ///< The rule broken (for SCOPED_TRACE).
    std::string message;  ///< How the rejection names it, after "query 50 of job 5 ".
    workload::Workload workload;
};

inline std::vector<Case> malformed(const field::GridSpec& grid) {
    std::vector<Case> cases;
    const auto add = [&](std::string rule, std::string message, auto breaks) {
        workload::Workload w = well_formed(grid);
        breaks(w.jobs.front().queries.front());
        cases.push_back(Case{std::move(rule), std::move(message), std::move(w)});
    };
    add("entries out of Morton order", "lists atom 1 after atom 200",
        [](workload::Query& q) { std::swap(q.footprint[1], q.footprint[2]); });
    add("an atom listed twice", "lists atom 1 after atom 1",
        [](workload::Query& q) { q.footprint[2].atom.morton = 1; });
    add("an entry off the query's time step", "lists an atom of time step 2, not its own step 1",
        [](workload::Query& q) { q.footprint[1].atom.timestep = 2; });
    add("positions that do not number total_positions()",
        "has 11 explicit positions, but its footprint counts 12",
        [](workload::Query& q) { q.positions.pop_back(); });
    add("a coordinate that is not finite", "has position 6 with a coordinate that is not finite",
        [](workload::Query& q) { q.positions[6].y = std::numeric_limits<double>::quiet_NaN(); });
    // Position 5 belongs to the entry of atom 1; position 0 lies in atom 0.
    add("a point outside its entry's atom", "has position 5 outside atom 1",
        [](workload::Query& q) { q.positions[5] = q.positions[0]; });
    add("a kernel wider than the ghost region",
        "uses interpolation order 8, whose kernel half-width 4 exceeds grid.ghost (2)",
        [](workload::Query& q) { q.order = field::InterpOrder::kLag8; });
    return cases;
}

}  // namespace jaws::layout_cases
