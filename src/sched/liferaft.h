// LifeRaft scheduler (paper Sec. III).
//
// Data-driven batch processing: queries are split into per-atom sub-queries,
// pooled in workload queues, and atoms are evaluated greedily in decreasing
// aged workload throughput U_e (Eq. 2) with a *fixed* age bias alpha set at
// construction. One atom is scheduled per dispatch (no two-level framework),
// and all sub-queries pending against it are evaluated in a single pass.
// alpha = 0 is the paper's contention-maximising LifeRaft_2; alpha = 1 is the
// arrival-order LifeRaft_1 (which still co-schedules queries that reference
// the same data as the oldest request).
#pragma once

#include "sched/scheduler.h"

namespace jaws::sched {

/// Single-atom contention-ordered scheduling with fixed alpha.
class LifeRaftScheduler final : public Scheduler {
  public:
    LifeRaftScheduler(const CostConstants& cost, const cache::BufferCache* cache,
                      double alpha);

    std::string name() const override;
    void on_query_visible(const workload::Query& query, util::SimTime now) override;
    void on_residency_changed(const storage::AtomId& atom) override;
    void purge_atom(const storage::AtomId& atom, std::vector<SubQuery>& out) override {
        manager_.drain_atom(atom, out);
    }
    void next_batch(util::SimTime now, Batch& out) override;
    bool has_pending() const override { return !manager_.empty(); }
    std::size_t pending_count() const override { return manager_.pending_subqueries(); }
    double current_alpha() const override { return manager_.alpha(); }

    /// The underlying workload manager (URC oracle access, tests).
    WorkloadManager& manager() noexcept { return manager_; }

  private:
    std::unique_ptr<CacheResidencyProbe> probe_;
    WorkloadManager manager_;
    std::vector<SubQuery> split_;  ///< preprocess buffer, reused per query.
};

}  // namespace jaws::sched
