#include "cache/two_q.h"

#include <algorithm>
#include <cassert>

#include "util/contracts.h"

namespace jaws::cache {

TwoQPolicy::TwoQPolicy(std::size_t capacity_atoms, double in_fraction)
    : in_cap_(std::max<std::size_t>(
          1, static_cast<std::size_t>(static_cast<double>(capacity_atoms) * in_fraction))),
      ghost_cap_(std::max<std::size_t>(1, capacity_atoms)) {}

void TwoQPolicy::remember_ghost(const storage::AtomId& atom) {
    if (a1out_.insert(atom).second) {
        a1out_fifo_.push_back(atom);
        while (a1out_fifo_.size() > ghost_cap_) {
            a1out_.erase(a1out_fifo_.front());
            a1out_fifo_.pop_front();
        }
    }
}

void TwoQPolicy::on_insert(const storage::AtomId& atom) {
    assert(!slots_.contains(atom));
    const bool ghosted = a1out_.contains(atom);
    if (ghosted) {
        // Seen before and evicted from A1in: this is real re-use — admit to Am.
        am_.push_front(atom);
        slots_[atom] = Slot{am_.begin(), true};
    } else {
        a1in_.push_front(atom);
        slots_[atom] = Slot{a1in_.begin(), false};
    }
}

void TwoQPolicy::on_access(const storage::AtomId& atom) {
    const auto it = slots_.find(atom);
    assert(it != slots_.end());
    if (it->second.in_am) {
        am_.splice(am_.begin(), am_, it->second.where);  // LRU refresh
    }
    // A1in accesses are treated as correlated references: no promotion, no
    // reordering (FIFO), exactly as 2Q prescribes.
}

storage::AtomId TwoQPolicy::pick_victim() {
    // Evict from A1in while it exceeds its share (or Am is empty); ghost the
    // victim so a prompt re-reference promotes it next time.
    if (!a1in_.empty() && (a1in_.size() > in_cap_ || am_.empty())) return a1in_.back();
    if (!am_.empty()) return am_.back();
    assert(!a1in_.empty());
    return a1in_.back();
}

void TwoQPolicy::on_evict(const storage::AtomId& atom) {
    const auto it = slots_.find(atom);
    assert(it != slots_.end());
    if (it->second.in_am) {
        am_.erase(it->second.where);
    } else {
        a1in_.erase(it->second.where);
        remember_ghost(atom);
    }
    slots_.erase(it);
}

bool TwoQPolicy::audit(const std::vector<storage::AtomId>& resident) const {
    bool ok = JAWS_AUDIT_CHECK(
        slots_.size() == resident.size() && a1in_.size() + am_.size() == resident.size(),
        "TwoQPolicy: queue sizes diverged from the cache's resident set");
    const auto walk = [&](const std::list<storage::AtomId>& queue, bool in_am) {
        for (auto it = queue.begin(); it != queue.end(); ++it) {
            const auto slot = slots_.find(*it);
            const bool linked = slot != slots_.end() && slot->second.in_am == in_am &&
                                slot->second.where == it;
            ok &= JAWS_AUDIT_CHECK(linked, "TwoQPolicy: queue node unlinked from the slot index");
            ok &= JAWS_AUDIT_CHECK(std::binary_search(resident.begin(), resident.end(), *it),
                                   "TwoQPolicy: tracking an atom the cache does not hold");
        }
    };
    walk(a1in_, false);
    walk(am_, true);
    ok &= JAWS_AUDIT_CHECK(a1out_.size() == a1out_fifo_.size() && a1out_.size() <= ghost_cap_,
                           "TwoQPolicy: ghost bookkeeping inconsistent");
    for (const storage::AtomId& ghost : a1out_fifo_)
        ok &= JAWS_AUDIT_CHECK(a1out_.contains(ghost),
                               "TwoQPolicy: ghost FIFO entry missing from the ghost set");
    return ok;
}

}  // namespace jaws::cache
