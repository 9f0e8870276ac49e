// Completion-time guarantees (paper Sec. VII, future work).
//
// "We are currently exploring techniques that provide predictable and fair
// completion time guarantees that are proportional to query size (e.g. short
// queries are delayed less than long queries). We observe that even with
// real-time constraints that bound the completion time of queries, there is
// still elasticity in the workload that permits the reordering of queries to
// exploit data sharing."
//
// Every query receives a deadline proportional to its own estimated service
// time; the scheduler stays in contention order while guarantees are safe
// and switches to earliest-deadline-first rescue dispatches only when one
// would otherwise be missed.
#pragma once

#include <cstdint>

namespace jaws::sched {

/// QoS mode configuration.
struct QosConfig {
    bool enabled = false;
    double slack_factor = 8.0;   ///< Deadline = visible + slack * estimated service.
    double margin_ms = 5000.0;   ///< Rescue when deadline - now falls below this.
};

/// Per-query completion-guarantee accounting.
struct QosStats {
    std::uint64_t guaranteed = 0;     ///< Queries that carried a deadline.
    std::uint64_t misses = 0;         ///< Completed after their deadline.
    double tardiness_ms_sum = 0.0;    ///< Total lateness of missed deadlines.
    std::uint64_t edf_dispatches = 0; ///< Batches driven by deadline rescue.

    double miss_rate() const noexcept {
        return guaranteed ? static_cast<double>(misses) / static_cast<double>(guaranteed)
                          : 0.0;
    }
    double mean_tardiness_ms() const noexcept {
        return misses ? tardiness_ms_sum / static_cast<double>(misses) : 0.0;
    }

    bool operator==(const QosStats&) const = default;
};

}  // namespace jaws::sched
