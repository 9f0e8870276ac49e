// Scheduler interface.
//
// The engine (core module) drives a scheduler through notifications — job
// submitted, query visible (its inputs exist), query completed — and asks it
// for the next batch of atoms to process. Each batch item is one atom
// together with the *entire* workload queue drained from it, which the
// engine evaluates in a single pass over the atom's data. The batch is
// written into a buffer the engine owns and reuses from batch to batch. The
// four paper systems (NoShare, LifeRaft, JAWS_1, JAWS_2) implement this
// interface. No scheduler knows about storage faults: a drained item whose
// read exhausts its attempts has its sub-queries failed by the engine, and
// a later query on the same atom is queued and read afresh.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "cache/buffer_cache.h"
#include "sched/precedence_graph.h"
#include "sched/qos.h"
#include "sched/subquery.h"
#include "sched/workload_manager.h"
#include "workload/job.h"

namespace jaws::sched {

/// One atom scheduled for processing; its drained sub-queries are
/// Batch::subqueries[first, first + count).
struct BatchItem {
    storage::AtomId atom;
    std::size_t first = 0;
    std::size_t count = 0;
};

/// A batch of atoms in execution order, with every item's sub-queries stored
/// back to back in one array. The caller owns it and hands it to every
/// next_batch() call, so its storage is reused.
struct Batch {
    std::vector<BatchItem> items;
    std::vector<SubQuery> subqueries;

    void clear() noexcept {
        items.clear();
        subqueries.clear();
    }
    bool empty() const noexcept { return items.empty(); }

    /// The sub-queries of `item` (one of `items`, or a copy of one).
    std::span<const SubQuery> subqueries_of(const BatchItem& item) const noexcept {
        return {subqueries.data() + item.first, item.count};
    }
    std::span<SubQuery> subqueries_of(const BatchItem& item) noexcept {
        return {subqueries.data() + item.first, item.count};
    }

    /// Drain `atom`'s workload queue from `manager` as the next item.
    void add_drained(WorkloadManager& manager, const storage::AtomId& atom) {
        const std::size_t first = subqueries.size();
        manager.drain_atom(atom, subqueries);
        items.push_back(BatchItem{atom, first, subqueries.size() - first});
    }
};

/// Scheduling policy driven by the engine.
class Scheduler {
  public:
    virtual ~Scheduler() = default;

    /// Policy name for reports ("NoShare", "LifeRaft", "JAWS", ...).
    virtual std::string name() const = 0;

    /// A job's declared workflow was submitted (called before any of its
    /// queries become visible). Default: ignore (only JAWS_2 is job-aware).
    virtual void on_job_submitted(const workload::Job& job) { (void)job; }

    /// `query`'s inputs now exist and it may be scheduled (subject to the
    /// scheduler's own gating). The reference stays valid until completion.
    virtual void on_query_visible(const workload::Query& query, util::SimTime now) = 0;

    /// All of `query`'s sub-queries finished at `now` with the given
    /// response time (completion - visible).
    virtual void on_query_completed(workload::QueryId query, util::SimTime response,
                                    util::SimTime now) {
        (void)query;
        (void)response;
        (void)now;
    }

    /// The engine closed a run of EngineConfig::run_length completions at
    /// `now` (right after the run's last on_query_completed). Default:
    /// nothing measured per run.
    virtual void on_run_boundary(util::SimTime now) { (void)now; }

    /// An atom entered or left the buffer cache (phi(i) flipped).
    virtual void on_residency_changed(const storage::AtomId& atom) { (void)atom; }

    /// Replace `out`'s contents with the next batch of atoms to evaluate, in
    /// execution order; left empty when no work is currently schedulable.
    virtual void next_batch(util::SimTime now, Batch& out) = 0;

    /// Whether any sub-query is currently schedulable.
    virtual bool has_pending() const = 0;

    /// Number of schedulable sub-queries (backlog depth, for telemetry).
    virtual std::size_t pending_count() const = 0;

    /// Escape hatch when the engine would stall with visible-but-gated
    /// queries only: release at least one. Returns true if anything was
    /// released. Default: no gating, nothing to do.
    virtual bool unstick(util::SimTime now) {
        (void)now;
        return false;
    }

    /// Current age bias (for reports); NaN-free default for ungated policies.
    virtual double current_alpha() const { return 0.0; }

    /// Gating statistics, when the policy is job-aware; null otherwise.
    virtual const GatingStats* gating_stats() const { return nullptr; }

    /// QoS statistics, when the policy issues completion guarantees.
    virtual const QosStats* qos_stats() const { return nullptr; }
};

/// Adapter exposing BufferCache residency as the WorkloadManager's phi probe.
class CacheResidencyProbe final : public ResidencyProbe {
  public:
    explicit CacheResidencyProbe(const cache::BufferCache& cache) : cache_(cache) {}
    bool resident(const storage::AtomId& atom) const override {
        return cache_.contains(atom);
    }

  private:
    const cache::BufferCache& cache_;
};

}  // namespace jaws::sched
