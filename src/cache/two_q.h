// 2Q replacement (Johnson & Shasha, VLDB '94 — the paper's reference [23],
// one of the two works its SLRU variant is "inspired by").
//
// Simplified 2Q: new atoms enter a FIFO probationary queue (A1in). Atoms
// evicted from A1in leave a *ghost* entry (A1out) remembering that they were
// seen; a re-reference while ghosted admits the atom directly into the main
// LRU (Am). Atoms re-referenced while still in A1in stay there (correlated
// references do not promote). One-shot scans therefore flow through A1in
// without disturbing Am, while genuinely re-used atoms accumulate in it —
// scan resistance with O(1) operations.
#pragma once

#include <cstddef>
#include <list>

#include "cache/replacement_policy.h"
#include "util/slot_index.h"

namespace jaws::cache {

/// Simplified 2Q with ghost history.
class TwoQPolicy final : public ReplacementPolicy {
  public:
    /// `capacity_atoms` sizes the A1in share and the ghost list:
    /// |A1in| <= in_fraction * capacity, |A1out| <= capacity ghosts.
    explicit TwoQPolicy(std::size_t capacity_atoms, double in_fraction = 0.25);

    void on_insert(const storage::AtomId& atom) override;
    void on_access(const storage::AtomId& atom) override;
    storage::AtomId pick_victim() override;
    void on_evict(const storage::AtomId& atom) override;
    std::string name() const override { return "2Q"; }
    bool audit(const std::vector<storage::AtomId>& resident) const override;

    /// Segment sizes for tests.
    std::size_t a1in_size() const noexcept { return a1in_.size(); }
    std::size_t am_size() const noexcept { return am_.size(); }
    std::size_t ghost_size() const noexcept { return a1out_.size(); }

  private:
    using Node = std::list<storage::AtomId>::iterator;
    struct Entry {
        Node where;
        bool in_am = false;
    };

    void remember_ghost(const storage::AtomId& atom);

    std::size_t in_cap_;
    std::size_t ghost_cap_;
    // Front = newest (A1in FIFO) / most recently used (Am LRU).
    std::list<storage::AtomId> a1in_;
    std::list<storage::AtomId> am_;
    util::SlotMap<Entry> slots_;  ///< Atom key -> its queue node.
    // Ghosts: atom key -> its node in a FIFO for bounded forgetting.
    util::SlotMap<Node> a1out_;
    std::list<storage::AtomId> a1out_fifo_;
};

}  // namespace jaws::cache
