// NoShare baseline scheduler (paper Sec. VI).
//
// Evaluates each query independently and in arrival order: no sub-query
// batching across queries, no contention metric. A dispatched batch is simply
// the oldest visible query's own atoms (Morton-sorted, as the production
// system evaluates every query). I/O sharing only happens implicitly through
// whatever the buffer cache retains. A query is split into sub-queries only
// when it is dispatched, straight into the engine's batch buffer, so the
// backlog holds one reference per waiting query rather than its sub-queries.
#pragma once

#include <deque>
#include <utility>

#include "sched/scheduler.h"

namespace jaws::sched {

/// FIFO, query-at-a-time scheduling.
class NoShareScheduler final : public Scheduler {
  public:
    std::string name() const override { return "NoShare"; }

    void on_query_visible(const workload::Query& query, util::SimTime now) override;
    void next_batch(util::SimTime now, Batch& out) override;
    bool has_pending() const override { return !fifo_.empty(); }
    std::size_t pending_count() const override { return pending_subqueries_; }

  private:
    // Each entry is one visible query and the instant it became visible
    // (its sub-queries' enqueue time). The Scheduler contract keeps the
    // reference valid until the query completes.
    std::deque<std::pair<const workload::Query*, util::SimTime>> fifo_;
    std::size_t pending_subqueries_ = 0;  ///< Footprint atoms of the queued queries.
};

}  // namespace jaws::sched
