// Workload manager: per-atom workload queues and contention metrics.
//
// Implements the data-driven core of LifeRaft/JAWS (paper Secs. III-C, V):
//   * a workload queue per atom holding the pending sub-queries against it;
//   * the workload-throughput metric (Eq. 1)
//         U_t(i) = W_i / (T_b * phi(i) + T_m * W_i)
//     where W_i is the total pending positions, T_b/T_m the I/O/compute cost
//     constants and phi(i) = 0 when the atom is cached;
//   * the aged metric (Eq. 2)  U_e(i) = U_t(i)*(1-alpha) + E(i)*alpha, with
//     E(i) the age of the oldest sub-query. Because E(i) = now - oldest_i,
//     atoms can be ranked by the *static* key U_t*(1-alpha) - oldest_i*alpha
//     (the common now*alpha term cancels), so an atom's rank only changes
//     when its queue mutates, its cache residency flips, or alpha changes;
//   * the two-level selection (Sec. V, Fig. 6): pick the time step with the
//     highest mean U_t, then up to k atoms of that step with U_t above the
//     mean, returned in Morton order;
//   * the UtilityOracle interface URC reads for cache coordination.
//
// Pending sub-queries live in one slab of small fixed-size blocks, a
// util::SlotPool. Each atom's workload queue is a FIFO list of blocks
// threaded through the slab (head, tail, next). A block's records leave out
// the atom, which the queue names, and a drain puts it back. The queues
// themselves live in a util::SlotMap keyed by the atom's clustered-index
// key; a drained queue's slot is the next one a queue opens in, and the map
// nodes of emptied steps are kept for reuse, so in steady state neither
// enqueue nor drain allocates. The slab is shared by all atoms, so the memory held
// follows the peak of the total pending work (plus at most one partly
// filled block per pending atom), not the sum of per-atom peaks.
//
// Each queue caches phi(i), probed when the queue opens and again on every
// on_residency_changed(), so a re-rank never probes the cache. That relies
// on the caller's contract: every residency flip of an atom reaches
// on_residency_changed() before the manager is next used.
//
// The global ranking serves only the single-atom pick (LifeRaft's), so it
// is built the first time pick_best_atom() asks for it: one make_heap over
// the open queues. Under the two-level pick alone (JAWS) it never exists,
// and enqueues and drains do no ranking work. Once built it is a lazily
// invalidated binary heap: every re-rank pushes a fresh entry stamped with
// a unique number the queue remembers, and an entry whose stamp no longer
// matches its queue slot's is stale (a drain resets its slot's stamp to 0,
// which no entry carries). Stale entries are popped when they surface at the
// top and compacted away once the heap holds more than twice the pending
// atoms, so the top is always live. The top is the unique smallest (-key,
// atom key), however the heap was built. Each step keeps an unordered
// member list (swap-remove) that the two-level pick ranks on demand; only
// its first k atoms are ever sorted.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "cache/replacement_policy.h"
#include "sched/subquery.h"
#include "storage/atom.h"
#include "util/sim_time.h"
#include "util/slot_index.h"

namespace jaws::sched {

/// The cost constants of Eq. 1, in the units used throughout (milliseconds of
/// virtual time; W in positions).
struct CostConstants {
    double t_b_ms = 25.0;  ///< Estimated cost of reading one atom from disk.
    double t_m_ms = 0.005; ///< Estimated compute cost per position (5 us).
    /// Denominator of per-step means. core::Engine overwrites it with
    /// EngineConfig::grid's atoms per step.
    std::uint64_t atoms_per_step = 4096;
};

/// Residency probe for phi(i); decouples the manager from the cache class.
class ResidencyProbe {
  public:
    virtual ~ResidencyProbe() = default;
    /// True when `atom` is in memory (phi = 0).
    virtual bool resident(const storage::AtomId& atom) const = 0;
};

/// Per-atom workload queues with contention-ordered indexes.
class WorkloadManager final : public cache::UtilityOracle {
  public:
    /// `probe` may be null (phi taken as 1 everywhere) and must outlive the
    /// manager otherwise. `cost.atoms_per_step` is the denominator of the
    /// paper's "mean over all atoms in a time step" (4096 in production): the
    /// coarse level ranks steps by total pending contention normalised by
    /// this constant, so steps with more aggregate work win, and the in-step
    /// selection bar ("U_t greater than the mean") is correspondingly low.
    WorkloadManager(const CostConstants& cost, const ResidencyProbe* probe,
                    double alpha = 0.5);

    // --- queue mutation ---

    /// Append a sub-query to its atom's workload queue.
    void enqueue(const SubQuery& sub);

    /// Remove the whole workload queue of `atom` (the single pass over the
    /// atom's data evaluates all of it) and append it to `out` in enqueue
    /// order. Appends nothing if no work is pending against `atom`.
    void drain_atom(const storage::AtomId& atom, std::vector<SubQuery>& out);

    /// Value-returning form of drain_atom (tests and benchmarks).
    std::vector<SubQuery> drain_atom(const storage::AtomId& atom) {
        std::vector<SubQuery> out;
        drain_atom(atom, out);
        return out;
    }

    /// Notify that `atom`'s cache residency changed (phi flips, U_t changes).
    /// Every flip must be reported: an open queue keeps the phi it last
    /// probed.
    void on_residency_changed(const storage::AtomId& atom);

    // --- selection ---

    /// Atom with the highest aged workload throughput U_e (LifeRaft's
    /// single-atom pick; the ranking is the same at every `now`). nullopt
    /// when no work is pending. The first call builds the ranking, which the
    /// manager keeps from then on.
    std::optional<storage::AtomId> pick_best_atom();

    /// Two-level pick (paper Sec. V, Fig. 6): the time step with the highest
    /// mean *aged* workload throughput over all of the step's atoms
    /// (Sec. V-C), then up to `k` atoms of that step with U_t at or above the
    /// step's mean U_t, in Morton order. `now` enters through the age term
    /// E(i) = now - oldest_i of the aged metric. Replaces `out`'s contents.
    void pick_two_level_batch(std::size_t k, util::SimTime now,
                              std::vector<storage::AtomId>& out) const;

    /// Value-returning form of pick_two_level_batch (tests and benchmarks).
    std::vector<storage::AtomId> pick_two_level_batch(std::size_t k, util::SimTime now) const {
        std::vector<storage::AtomId> out;
        pick_two_level_batch(k, now, out);
        return out;
    }

    /// QoS support (paper Sec. VII): the atom whose pending work carries the
    /// earliest completion deadline, with that deadline. nullopt when no
    /// pending sub-query has a deadline.
    std::optional<std::pair<storage::AtomId, util::SimTime>> earliest_deadline_atom() const;

    // --- metrics / oracle ---

    /// U_t(atom) (Eq. 1); 0 when no work is pending against it.
    double atom_utility(const storage::AtomId& atom) const override;
    /// Mean U_t over the pending atoms of step `t`; 0 if none.
    double timestep_mean_utility(std::uint32_t t) const override;

    // --- alpha ---

    /// Current age bias.
    double alpha() const noexcept { return alpha_; }
    /// Change the age bias (rebuilds the ranking).
    void set_alpha(double alpha);

    // --- introspection ---

    bool empty() const noexcept { return queues_.empty(); }

    /// Exhaustive consistency check between the atom queues and the derived
    /// indexes (automatic at transitions in audit builds; callable from
    /// tests): the queue map and the slab (every block in use on exactly
    /// one queue list, reached once), per-queue position, oldest-time and
    /// deadline caches, the cached phi against the probe, global
    /// totals, the ranking heap (empty before the first pick_best_atom();
    /// after it one live entry per atom and a live top equal to the
    /// brute-force best), the per-step member lists and aggregates,
    /// and the deadline index must all re-derive from the queues. Reports
    /// through util::contract_violation; returns true when clean.
    bool audit() const;
    /// The cost constants in effect (schedulers derive service estimates).
    const CostConstants& cost() const noexcept { return cost_; }
    std::size_t pending_atoms() const noexcept { return queues_.size(); }
    std::uint64_t pending_positions() const noexcept { return total_positions_; }
    std::size_t pending_subqueries() const noexcept { return total_subqueries_; }

  private:
    /// End of an atom queue's block list.
    static constexpr std::uint32_t kNil = UINT32_MAX;
    /// Sub-queries per slab block: a queue's sub-queries sit contiguously in
    /// runs of this length, and at most one partly filled block per pending
    /// atom is slack.
    static constexpr std::size_t kBlockSubqueries = 4;

    /// A pending sub-query as its queue holds it: every field of the
    /// SubQuery but the atom, which is the queue's.
    struct Pending {
        workload::QueryId query = 0;
        std::uint32_t positions = 0;
        Supports supports;
        util::SimTime enqueue_time;
        util::SimTime deadline;
    };
    static_assert(sizeof(Pending) == 32, "the slab holds every pending sub-query: keep it small");
    /// A run of one atom queue's pending sub-queries and the queue's next
    /// block.
    struct Block {
        std::array<Pending, kBlockSubqueries> subs;
        std::uint32_t next = kNil;
    };

    using Slot = util::SlotIndex::Slot;

    /// One atom's workload queue, keyed by the atom's key. A drain resets
    /// its slot to an empty queue.
    struct AtomQueue {
        std::uint32_t head = kNil;  ///< Block of the oldest pending sub-query.
        std::uint32_t tail = kNil;  ///< Block of the newest pending sub-query.
        std::uint32_t count = 0;    ///< Pending sub-queries.
        std::uint32_t member = 0;   ///< Index in its step's member list.
        std::uint64_t positions = 0;
        util::SimTime oldest;
        /// Earliest QoS deadline queued (SimTime::max() = none).
        util::SimTime min_deadline = util::SimTime::max();
        double phi = 1.0;      ///< Cached phi(i): 0 while the atom is resident.
        double utility = 0.0;  ///< Cached U_t.
        double key = 0.0;      ///< Cached static ranking key.
        std::uint64_t stamp = 0;  ///< Stamp of this queue's live ranking entry.
    };
    /// Ranking-heap entry; the heap's top is the smallest (-key, atom key).
    struct RankEntry {
        double neg_key = 0.0;
        storage::AtomKey atom;
        std::uint64_t stamp = 0;
        Slot slot = 0;  ///< The queue it ranks (live while stamps match).
    };
    struct Member {
        storage::AtomKey atom;
        Slot slot = 0;  ///< The member's queue.
    };
    struct StepAgg {
        double utility_sum = 0.0;  ///< Sum of U_t (mean gates in-step selection).
        double key_sum = 0.0;      ///< Sum of static aged keys (mean picks the step).
        /// Audit only: |utility_sum| and |key_sum| summed after every update
        /// since the last restart. Each += or -= rounds by at most half an
        /// ulp of its result, so epsilon times these bounds the rounding
        /// residue the sums carry, removed values' included.
        double utility_residue = 0.0;
        double key_residue = 0.0;
        std::vector<Member> members;  ///< Pending atoms of the step, unordered.

        /// Restart the sums, and their residue bounds, from exactly 0.0.
        void restart() noexcept { utility_sum = key_sum = utility_residue = key_residue = 0.0; }
        /// Call after each update of the sums.
        void note_update() noexcept {
            utility_residue += std::abs(utility_sum);
            key_residue += std::abs(key_sum);
        }
    };
    using StepMap = std::map<std::uint32_t, StepAgg>;

    /// The atom whose queue is in `slot`.
    storage::AtomKey atom_of(Slot slot) const noexcept {
        return storage::AtomKey{queues_.key(slot)};
    }
    std::uint32_t step_of(Slot slot) const noexcept {
        return storage::AtomId::from_key(atom_of(slot)).timestep;
    }
    /// Slot of `atom`'s queue, or SlotIndex::kNone.
    Slot slot_of(const storage::AtomId& atom) const noexcept {
        return queues_.find(atom.key().value());
    }
    /// phi(i) as the probe reports it now.
    double probe_phi(const storage::AtomId& atom) const;
    double compute_utility(const AtomQueue& q) const;
    double compute_key(const AtomQueue& q) const;
    void index_insert(Slot slot);
    void index_rerank(Slot slot);
    /// Recompute U_t and the key, add them to the step sums, and, once the
    /// ranking is built, push the new rank (retiring the queue's previous
    /// heap entry).
    void index_add(Slot slot, StepAgg& agg);
    void index_erase(Slot slot);
    /// Remove an emptied step, keeping its node for the next step that opens.
    void retire_step(StepMap::iterator it);
    void rebuild_index();
    /// Rank every open queue: the first single-atom pick's heap.
    void build_ranking();
    bool live(const RankEntry& e) const noexcept { return queues_[e.slot].stamp == e.stamp; }
    /// Restore the live-top invariant after `top_stale` retired the top, and
    /// compact once stale entries outnumber the live ones.
    void trim_ranking(bool top_stale);

    CostConstants cost_;
    const ResidencyProbe* probe_;
    double alpha_;

    util::SlotPool<Block, 8> slab_;     ///< The blocks of every atom queue.
    util::SlotMap<AtomQueue> queues_;  ///< Atom key -> its open queue.
    std::vector<RankEntry> ranking_;  ///< Lazily invalidated heap.
    bool ranked_ = false;             ///< Whether pick_best_atom() has run.
    std::uint64_t stamps_ = 0;        ///< Last stamp handed out.
    StepMap steps_;
    /// Emptied steps' map nodes, member lists cleared but not shrunk.
    std::vector<StepMap::node_type> spare_steps_;
    mutable std::vector<Member> pick_scratch_;  ///< pick_two_level_batch's top k.
    // Atoms with deadlined work, ordered by (deadline, atom key).
    std::set<std::pair<util::SimTime, storage::AtomKey>> deadlines_;
    std::uint64_t total_positions_ = 0;
    std::size_t total_subqueries_ = 0;
    std::uint64_t audit_tick_ = 0;  ///< Rate limiter for automatic audits.
};

}  // namespace jaws::sched
