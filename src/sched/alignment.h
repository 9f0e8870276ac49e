// Pairwise data-sharing alignment (paper Sec. IV-B, Fig. 3).
//
// The first phase of job-aware scheduling finds the maximal data sharing
// between every pair of ordered jobs with a dynamic program based on the
// Needleman-Wunsch global-alignment algorithm: aligning query j of one job
// with query l of the other scores 1 when the two queries share data
// (A(q_a,j) intersects A(q_b,l)) and 0 otherwise, and skips are free. Every
// aligned sharing pair becomes a candidate gating edge. Alignments are
// monotone by construction, so candidate edges between a job pair never
// cross — the property the admission phase relies on.
#pragma once

#include <cstdint>
#include <vector>

#include "workload/job.h"

namespace jaws::sched {

/// One aligned pair of query indices (0-based positions within each job).
struct AlignedPair {
    std::uint32_t a_seq = 0;
    std::uint32_t b_seq = 0;

    friend bool operator==(const AlignedPair&, const AlignedPair&) = default;
};

/// Whether two queries share data: their atom footprints intersect
/// (both footprints are (timestep, Morton)-sorted, so this is a merge scan).
bool queries_share_data(const workload::Query& a, const workload::Query& b);

/// Result of aligning two jobs.
struct Alignment {
    std::vector<AlignedPair> pairs;  ///< Ascending in both sequences.
    std::uint32_t score = 0;         ///< Number of sharing pairs aligned (== pairs.size()).
};

/// Needleman-Wunsch alignment of `a` against `b` maximising the number of
/// aligned data-sharing query pairs. O(|a|*|b|) time and space.
Alignment align_jobs(const workload::Job& a, const workload::Job& b);

}  // namespace jaws::sched
