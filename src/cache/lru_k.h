// LRU-K replacement (O'Neil, O'Neil & Weikum, SIGMOD '93).
//
// The paper's baseline: SQL Server's page replacement is "a variant of LRU-K"
// (Sec. II / Table I). LRU-K evicts the page whose K-th most recent reference
// is oldest — pages referenced fewer than K times rank as infinitely old, so
// one-shot scans cannot flush frequently reused atoms. We keep a bounded
// retained-history table for recently evicted atoms, as the original paper
// prescribes, so re-admitted atoms do not lose their reference history.
//
// Residents are kept in an ordered index on (kth_ref, recent, atom), updated
// on every insert, access and evict, so the victim is the index's first
// entry. Recency ticks are unique, so that key is a strict total order and
// the victim is exactly the argmin a full scan over the residents would find.
//
// Histories live in a util::SlotMap keyed by the atom's clustered-index
// key; a history dropped by the retained-history bound frees its slot for
// the next atom that needs one.
// In steady state the policy allocates nothing: an evicted atom's index node
// is reused by the next insert (BufferCache evicts just before it inserts),
// and each history's references live in a k-entry ring that stays with its
// slot.
#pragma once

#include <cstdint>
#include <deque>
#include <set>
#include <vector>

#include "cache/replacement_policy.h"
#include "util/slot_index.h"

namespace jaws::cache {

/// LRU-K with retained history. K defaults to 2 (the classical choice).
class LruKPolicy final : public ReplacementPolicy {
  public:
    /// `k` >= 1; `retained_history` bounds the number of evicted atoms whose
    /// reference history we remember.
    explicit LruKPolicy(unsigned k = 2, std::size_t retained_history = 4096);

    void on_insert(const storage::AtomId& atom) override;
    void on_access(const storage::AtomId& atom) override;
    storage::AtomId pick_victim() override;
    void on_evict(const storage::AtomId& atom) override;
    std::string name() const override { return "LRU-" + std::to_string(k_); }
    bool audit(const std::vector<storage::AtomId>& resident) const override;

  private:
    /// Eviction rank of a resident: smallest evicts first.
    struct Rank {
        /// Backward K-distance: the time of the K-th most recent reference,
        /// or 0 ("infinitely old") if the atom has fewer than K references.
        std::uint64_t kth_ref = 0;
        std::uint64_t recent = 0;  ///< Time of the most recent reference.
        storage::AtomId atom;

        friend auto operator<=>(const Rank&, const Rank&) = default;
    };
    using Index = std::set<Rank>;

    using Slot = util::SlotIndex::Slot;

    /// One atom's reference history, keyed by the atom's key.
    struct History {
        /// The last (at most k) reference ticks: appended until k are held,
        /// then a ring whose newest entry is at `newest`. Its storage stays
        /// with the slot when the slot is reused.
        std::vector<std::uint64_t> refs;
        std::size_t newest = 0;
        bool resident = false;
        Index::iterator rank;  ///< This atom's index entry while resident.

        /// The i-th most recent reference (0 = the latest); i < refs.size().
        std::uint64_t ref(std::size_t i) const noexcept {
            return refs[(newest + refs.size() - i) % refs.size()];
        }
    };

    /// Slot of `atom`'s history, or SlotIndex::kNone.
    Slot slot_of(const storage::AtomId& atom) const noexcept {
        return histories_.find(atom.key().value());
    }
    void touch(History& h);
    /// Current rank of the history in `s`.
    Rank rank_of(Slot s) const noexcept;

    unsigned k_;
    std::size_t retained_cap_;
    std::uint64_t tick_ = 0;
    util::SlotMap<History> histories_;  ///< Atom key -> its reference history.
    Index index_;  ///< One entry per resident, at its current rank.
    // FIFO of evicted atoms whose history is retained, for bounded cleanup.
    std::deque<storage::AtomId> retained_fifo_;
    Index::node_type spare_rank_;  ///< Last evicted atom's index node.
};

}  // namespace jaws::cache
