// Segmented LRU (paper Sec. V-B variant).
//
// The cache is split into a probationary segment and a small protected
// segment (5–10 % of capacity). Both segments are recency-ordered. Unlike
// textbook SLRU, the paper's variant promotes at *run boundaries*: at the end
// of each run of the workload the most frequently accessed atoms move into
// the protected segment, and atoms squeezed out of it re-enter the
// probationary segment at its MRU end. Frequently re-queried regions of
// interest (e.g. highly strained turbulent structures) thus survive one-shot
// scans of a whole time step. Overhead is near zero because promotion happens
// once per run.
#pragma once

#include <cassert>
#include <cstdint>
#include <list>

#include "cache/replacement_policy.h"
#include "util/slot_index.h"

namespace jaws::cache {

/// SLRU with run-boundary promotion by access frequency.
class SlruPolicy final : public ReplacementPolicy {
  public:
    /// `capacity_atoms` is the cache capacity this policy serves (needed to
    /// size the protected segment); `protected_fraction` defaults to the 5 %
    /// used in the paper's Table I.
    explicit SlruPolicy(std::size_t capacity_atoms, double protected_fraction = 0.05);

    void on_insert(const storage::AtomId& atom) override;
    void on_access(const storage::AtomId& atom) override;
    storage::AtomId pick_victim() override;
    void on_evict(const storage::AtomId& atom) override;
    void on_run_boundary() override;
    std::string name() const override { return "SLRU"; }
    bool audit(const std::vector<storage::AtomId>& resident) const override;

    /// Number of atoms currently in the protected segment (for tests).
    std::size_t protected_size() const noexcept { return protected_.size(); }

  private:
    struct Entry {
        std::list<storage::AtomId>::iterator where;
        bool is_protected = false;
        std::uint64_t run_accesses = 0;
    };

    Entry& entry(const storage::AtomId& atom) {
        const auto s = slots_.find(atom.key().value());
        assert(s != util::SlotIndex::kNone);
        return slots_[s];
    }
    void demote_to_probationary_mru(const storage::AtomId& atom);

    std::size_t protected_cap_;
    // Front = MRU.
    std::list<storage::AtomId> probationary_;
    std::list<storage::AtomId> protected_;
    util::SlotMap<Entry> slots_;  ///< Atom key -> its segment node.
};

}  // namespace jaws::cache
