// Precedence graph with gating edges (paper Sec. IV-B, Figs. 4-5).
//
// Vertices are queries; directed precedence edges chain each ordered job's
// queries; undirected *gating edges* mark cross-job query pairs that JAWS
// wants co-scheduled because they access the same atoms. Query states follow
// the paper:
//   WAIT  - predecessor not finished (inputs don't exist yet);
//   READY - precedence satisfied, but a gating partner is not yet READY;
//   QUEUE - all constraints satisfied, sub-queries may enter workload queues;
//   DONE  - completed (and pruned from the graph).
// A READY query is promoted to QUEUE once every gating partner is at least
// READY, so gated groups enter the workload queues together and the
// contention metric naturally co-schedules their shared atoms.
//
// Gating edges are admitted per the paper's AdmitGatingEdge (Fig. 4):
// transitive inheritance of the partner's existing edges, a gating-number
// monotonicity check, at most one edge per query per job pair, no crossing
// edges between a job pair — plus an exact deadlock check (cycle detection
// over the constraint graph with gating components contracted), which makes
// the "does not cause a deadlock in scheduling" condition precise.
//
// Nodes live in a util::SlotMap keyed by query id; partner lists and each
// job's chain hold slot indices. The contracted graph is built at most once
// per add_job call
// (at its first deadlock check) and answers each candidate edge with a local
// cycle search; see DESIGN.md, "Exact deadlock check".
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "util/slot_index.h"
#include "workload/job.h"

namespace jaws::sched {

/// Scheduling state of one query (paper Sec. IV-B).
enum class QueryState : std::uint8_t { kWait, kReady, kQueue, kDone };

/// Counters exposed for tests, benches and reports.
struct GatingStats {
    std::size_t alignments_run = 0;        ///< Job pairs aligned (disjoint-step pairs included).
    std::size_t edges_admitted = 0;
    /// Edges the paper's gating-number proxy would have rejected; we admit
    /// them when the exact cycle check passes (tracked for comparison).
    std::size_t edges_rejected_gating_number = 0;
    std::size_t edges_rejected_crossing = 0;
    std::size_t edges_rejected_deadlock = 0;
    std::size_t forced_promotions = 0;     ///< Anti-stall interventions (should be 0).

    bool operator==(const GatingStats&) const = default;
};

/// The job-aware precedence/gating graph.
class PrecedenceGraph {
  public:
    /// `gating_enabled` = false degrades to pure precedence tracking (JAWS_1).
    explicit PrecedenceGraph(bool gating_enabled = true)
        : gating_enabled_(gating_enabled) {}

    /// Register a job's declared workflow. The Job must outlive the graph (the
    /// engine owns jobs in stable storage); query ids are unique and each
    /// query's seq_in_job is its position in the job. Ordered jobs are
    /// aligned against every active ordered job, in descending
    /// alignment-score order, and feasible gating edges are admitted.
    void add_job(const workload::Job& job);
    /// Temporaries would dangle — the graph keeps a pointer to the job.
    void add_job(workload::Job&&) = delete;

    /// The query's inputs now exist (first query: job arrival; later queries:
    /// predecessor DONE + think time elapsed). Moves WAIT -> READY and runs
    /// gating promotion. Returns every query promoted to QUEUE by this event.
    std::vector<workload::QueryId> on_query_visible(workload::QueryId id);

    /// The query finished executing: QUEUE -> DONE, gating edges pruned.
    /// Returns queries promoted to QUEUE as a result (partners whose last
    /// un-READY partner was this query never exist — DONE also satisfies
    /// gating — so promotions here come from pruning).
    std::vector<workload::QueryId> on_query_done(workload::QueryId id);

    /// Anti-stall escape hatch: promote the READY query that has been visible
    /// longest, ignoring its gates. The engine calls this only when it would
    /// otherwise idle forever; with correct admission it never fires.
    std::vector<workload::QueryId> force_promote_oldest_ready();

    /// Current state of a query (kDone for unknown/pruned ids).
    QueryState state(workload::QueryId id) const;
    /// The query `id` names, as registered by add_job; requires a query
    /// that is not yet DONE.
    const workload::Query& query(workload::QueryId id) const;
    /// Gating number G(q): gating-edged queries in the job prefix up to and
    /// including q (paper Fig. 3's annotation). 0 for unknown ids.
    int gating_number(workload::QueryId id) const;
    /// Number of gating partners currently attached to `id`.
    std::size_t partner_count(workload::QueryId id) const;
    /// True if any query is in the READY state.
    bool has_ready() const noexcept { return ready_count_ > 0; }
    /// Counters.
    const GatingStats& stats() const noexcept { return stats_; }

    /// Exhaustive invariant check for tests: state machine consistency, slot
    /// index and chain bookkeeping, symmetric partner lists,
    /// one-edge-per-job-pair, and acyclicity of the contracted constraint
    /// graph (contracted anew).
    bool check_invariants() const;

    /// check_invariants() reported through util::contract_violation (audit
    /// builds run it automatically after every add_job / on_query_done and
    /// promotion pass). Returns true when clean.
    bool audit() const;

  private:
    /// Index of a node in `slots_`.
    using Slot = util::SlotIndex::Slot;
    static constexpr Slot kNoSlot = util::SlotIndex::kNone;

    /// One query, keyed by its id. A pruned query's slot is free, its node
    /// reset to kDone with no partners.
    struct Node {
        const workload::Query* query = nullptr;  ///< Owned by the job (see add_job).
        workload::JobId job = 0;
        std::uint32_t seq = 0;
        QueryState state = QueryState::kDone;
        int gating_number = 0;
        std::uint64_t visible_tick = 0;  ///< Order in which queries became READY.
        std::vector<Slot> partners;
    };

    struct JobEntry {
        const workload::Job* job = nullptr;
        std::size_t remaining = 0;         ///< Queries not yet DONE.
        std::vector<Slot> chain;           ///< Slot per seq; kNoSlot once DONE.
        std::vector<std::uint32_t> steps;  ///< Sorted distinct steps (gated jobs).
    };

    /// Gating components over a flat union-find, each with a linked list of
    /// the out-edges that ordered chains run to other components. The
    /// buffers are reused from one build to the next.
    class Contracted {
      public:
        /// Every slot a singleton component with no out-edges.
        void reset(std::size_t slots);
        Slot find(Slot s);
        /// Union the components of `a` and `b`, concatenating their out-edge
        /// lists; returns the merged root.
        Slot unite(Slot a, Slot b);
        /// Out-edge from root `from` to the component of `to`.
        void add_edge(Slot from, Slot to);
        /// Kahn's algorithm over the components of the live `slots`.
        bool acyclic(const util::SlotMap<Node>& slots);
        /// Whether merging the components of `nl` and `admit` closes a
        /// cycle: a forward search from the merged set's out-neighbours,
        /// through other components only, reaches the set again. Requires an
        /// acyclic graph. Edges inside the set become self-loops and drop.
        bool closes_cycle(Slot nl, std::span<const Slot> admit);
        /// Merge the components of `nl` and `admit` into one.
        void merge(Slot nl, std::span<const Slot> admit);

      private:
        static constexpr std::uint32_t kNoEdge = ~std::uint32_t{0};

        std::vector<Slot> parent_;
        std::vector<std::uint32_t> size_;
        std::vector<std::uint32_t> head_, tail_;  ///< Per root: out-edge list.
        std::vector<Slot> target_;                ///< Per edge: any slot of the target.
        std::vector<std::uint32_t> next_;         ///< Per edge: next in its list.
        /// Generation stamps: `stamp_` marks the merged set of the current
        /// search and `stamp_ + 1` a visited component, so no mark is ever
        /// cleared between searches.
        std::vector<std::uint64_t> mark_;
        std::uint64_t stamp_ = 0;
        std::vector<std::uint32_t> indegree_;
        std::vector<Slot> stack_, roots_;
    };

    Slot slot_of(workload::QueryId id) const;
    Slot allocate(const workload::Query& query, workload::JobId job);
    bool gating_satisfied(const Node& node) const;
    std::vector<workload::QueryId> promote_from(std::span<const Slot> seeds);
    bool try_admit_edge(const JobEntry& mine, Slot nl, Slot nk);
    bool edge_allowed_between(const JobEntry& mine, const Node& a, const Node& b) const;
    /// Whether gating `nl` with every slot of `admit_` deadlocks the schedule.
    bool would_close_cycle(Slot nl);
    /// Contract the current gating components and chains into `graph`.
    void contract(Contracted& graph) const;
    void recompute_gating_numbers(const JobEntry& entry);

    bool gating_enabled_;
    util::SlotMap<Node> slots_;  ///< QueryId -> its node.
    std::map<workload::JobId, JobEntry> jobs_;
    GatingStats stats_;
    std::size_t ready_count_ = 0;
    std::uint64_t tick_ = 0;

    /// This add_job call's contracted graph; discarded when the call returns,
    /// because pruning a query between calls can split a component.
    Contracted contracted_;
    bool contracted_built_ = false;
    /// The contracted graph may hold a cycle. Admissions keep it acyclic;
    /// only a prune of a query with two or more partners can split a
    /// component into pieces whose chains form one. Exact once this call's
    /// graph is built; while set, every candidate is refused.
    bool may_cycle_ = false;
    std::vector<Slot> admit_;  ///< Reused buffer: the partner and what it passes on.
};

}  // namespace jaws::sched
