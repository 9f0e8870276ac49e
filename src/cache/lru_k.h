// LRU-K replacement (O'Neil, O'Neil & Weikum, SIGMOD '93).
//
// The paper's baseline: SQL Server's page replacement is "a variant of LRU-K"
// (Sec. II / Table I). LRU-K evicts the page whose K-th most recent reference
// is oldest — pages referenced fewer than K times rank as infinitely old, so
// one-shot scans cannot flush frequently reused atoms. We keep a bounded
// retained-history table for recently evicted atoms, as the original paper
// prescribes, so re-admitted atoms do not lose their reference history.
//
// Residents are ranked by (kth_ref, recent) in a lazy binary min-heap: a hit
// only records the reference, and the order is paid for when a victim is
// picked. A reference only ever raises an atom's rank, so the key of each
// resident's one live heap entry is a lower bound of its current rank.
// pick_victim() pops dead entries (evicted or superseded atoms) off the top,
// re-pushes a top whose atom was referenced since it was pushed at the
// atom's current rank, and returns the first top that is up to date: that
// entry is the argmin over the residents. Recency ticks are unique, so the
// rank is a strict total order and the victim is exactly the argmin a full
// scan over the residents would find.
//
// Histories live in a util::SlotMap keyed by the atom's clustered-index
// key; a history dropped by the retained-history bound frees its slot for
// the next atom that needs one. In steady state the policy allocates
// nothing: the heap keeps its storage (dead entries left by evictions off
// the top, as BufferCache::clear makes, are compacted away once the heap
// holds more than twice the residents), and each history's references live
// in a k-entry ring that stays with its slot.
//
// With K = 1 this is plain LRU (cache/lru.h), and name() says so.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "cache/replacement_policy.h"
#include "util/slot_index.h"

namespace jaws::cache {

/// LRU-K with retained history. K defaults to 2 (the classical choice).
class LruKPolicy : public ReplacementPolicy {
  public:
    /// `k` >= 1; `retained_history` bounds the number of evicted atoms whose
    /// reference history we remember.
    explicit LruKPolicy(unsigned k = 2, std::size_t retained_history = 4096);

    void on_insert(const storage::AtomId& atom) override;
    void on_access(const storage::AtomId& atom) override;
    storage::AtomId pick_victim() override;
    void on_evict(const storage::AtomId& atom) override;
    std::string name() const override {
        return k_ == 1 ? "LRU" : "LRU-" + std::to_string(k_);
    }
    bool audit(const std::vector<storage::AtomId>& resident) const override;

  private:
    using Slot = util::SlotIndex::Slot;

    /// A heap entry: the rank of the history in `slot` when it was pushed;
    /// smallest evicts first.
    struct Entry {
        /// Backward K-distance: the time of the K-th most recent reference,
        /// or 0 ("infinitely old") if the atom has fewer than K references.
        std::uint64_t kth_ref = 0;
        std::uint64_t recent = 0;  ///< Time of the most recent reference.
        Slot slot = 0;

        /// Heap order: `a` sits below `b` when it evicts after it.
        friend bool operator>(const Entry& a, const Entry& b) noexcept {
            return a.kth_ref != b.kth_ref ? a.kth_ref > b.kth_ref : a.recent > b.recent;
        }
    };

    /// One atom's reference history, keyed by the atom's key.
    struct History {
        /// The last (at most k) reference ticks: appended until k are held,
        /// then a ring whose newest entry is at `newest`. Its storage stays
        /// with the slot when the slot is reused.
        std::vector<std::uint64_t> refs;
        std::size_t newest = 0;
        bool resident = false;
        /// `recent` of this atom's live heap entry while resident (unique:
        /// every tick is).
        std::uint64_t heaped = 0;

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
    /// Current rank of the history in `s`, as a heap entry.
    Entry rank_of(Slot s) const noexcept;
    /// Whether `e` is its resident atom's live entry (not evicted, dropped
    /// or superseded).
    bool live(const Entry& e) const noexcept {
        const History& h = histories_[e.slot];
        return h.resident && h.heaped == e.recent;
    }
    /// Push the current rank of the history in `s` as its live entry.
    void push_rank(Slot s);
    void pop_top();

    unsigned k_;
    std::size_t retained_cap_;
    std::uint64_t tick_ = 0;
    util::SlotMap<History> histories_;  ///< Atom key -> its reference history.
    std::vector<Entry> heap_;  ///< Lazy min-heap: one live entry per resident.
    std::size_t residents_ = 0;
    // FIFO of evicted atoms whose history is retained, for bounded cleanup.
    std::deque<storage::AtomId> retained_fifo_;
};

}  // namespace jaws::cache
