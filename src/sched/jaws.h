// The JAWS scheduler (paper Secs. IV-V).
//
// Extends LifeRaft with two-level scheduling — pick the time step with the
// highest mean workload throughput, then a batch of up to k above-mean atoms
// of that step, Morton-ordered (Sec. V, Fig. 6) — plus, independently
// switchable:
//   * adaptive starvation resistance — the run-based alpha controller
//     (Sec. V-A);
//   * job-awareness — the precedence/gating graph that delays queries so
//     that cross-job queries touching the same atoms enter the workload
//     queues together (Sec. IV).
// The paper's JAWS_1 is two-level plus adaptive; JAWS_2 adds job-awareness.
// Single-atom scheduling is LifeRaftScheduler (sched/liferaft.h).
#pragma once

#include "sched/adaptive_alpha.h"
#include "sched/precedence_graph.h"
#include "sched/qos.h"
#include "sched/scheduler.h"
#include "util/slot_index.h"

namespace jaws::sched {

/// Feature switches and parameters of a JAWS instance.
struct JawsConfig {
    std::size_t batch_size_k = 15;    ///< Atoms per two-level batch.
    bool job_aware = true;            ///< Build gating edges (JAWS_2).
    bool adaptive_alpha = true;       ///< Run the alpha controller.
    AdaptiveAlphaConfig alpha;        ///< Controller settings (initial alpha etc.).
    QosConfig qos;                    ///< Optional completion-time guarantees.
};

/// Full job-aware scheduler.
class JawsScheduler final : public Scheduler {
  public:
    JawsScheduler(const CostConstants& cost, const cache::BufferCache* cache,
                  const JawsConfig& config);

    std::string name() const override;
    void on_job_submitted(const workload::Job& job) override;
    void on_query_visible(const workload::Query& query, util::SimTime now) override;
    void on_query_completed(workload::QueryId query, util::SimTime response,
                            util::SimTime now) override;
    void on_residency_changed(const storage::AtomId& atom) override;
    void purge_atom(const storage::AtomId& atom, std::vector<SubQuery>& out) override {
        manager_.drain_atom(atom, out);
    }
    void next_batch(util::SimTime now, Batch& out) override;
    bool has_pending() const override { return !manager_.empty(); }
    std::size_t pending_count() const override { return manager_.pending_subqueries(); }
    bool unstick(util::SimTime now) override;
    double current_alpha() const override { return manager_.alpha(); }
    const GatingStats* gating_stats() const override { return &graph_.stats(); }

    /// QoS accounting (meaningful only when config.qos.enabled).
    const QosStats* qos_stats() const override { return &qos_stats_; }

    /// Oracle/tests access.
    WorkloadManager& manager() noexcept { return manager_; }
    /// Gating graph introspection (tests, benches).
    const PrecedenceGraph& graph() const noexcept { return graph_; }
    /// Alpha controller introspection.
    const AdaptiveAlphaController& controller() const noexcept { return controller_; }

  private:
    void enqueue_query(workload::QueryId id, util::SimTime now);

    JawsConfig config_;
    std::unique_ptr<CacheResidencyProbe> probe_;
    WorkloadManager manager_;
    PrecedenceGraph graph_;
    AdaptiveAlphaController controller_;
    util::SlotMap<util::SimTime> deadlines_;  ///< Query id -> its QoS deadline.
    QosStats qos_stats_;
    std::vector<SubQuery> split_;          ///< preprocess buffer, reused per query.
    std::vector<storage::AtomId> picks_;   ///< Two-level pick buffer, reused per batch.
};

}  // namespace jaws::sched
