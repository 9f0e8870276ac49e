#include "cache/two_q.h"

#include <algorithm>
#include <cassert>
#include <iterator>

#include "util/contracts.h"

namespace jaws::cache {

TwoQPolicy::TwoQPolicy(std::size_t capacity_atoms, double in_fraction)
    : in_cap_(std::max<std::size_t>(
          1, static_cast<std::size_t>(static_cast<double>(capacity_atoms) * in_fraction))),
      ghost_cap_(std::max<std::size_t>(1, capacity_atoms)) {}

void TwoQPolicy::remember_ghost(const storage::AtomId& atom) {
    if (a1out_.contains(atom.key().value())) return;
    a1out_fifo_.push_back(atom);
    a1out_[a1out_.insert(atom.key().value())] = std::prev(a1out_fifo_.end());
    while (a1out_fifo_.size() > ghost_cap_) {
        a1out_.erase(a1out_fifo_.front().key().value());
        a1out_fifo_.pop_front();
    }
}

void TwoQPolicy::on_insert(const storage::AtomId& atom) {
    const bool ghosted = a1out_.contains(atom.key().value());
    // Seen before and evicted from A1in: this is real re-use — admit to Am.
    auto& queue = ghosted ? am_ : a1in_;
    queue.push_front(atom);
    slots_[slots_.insert(atom.key().value())] = Entry{queue.begin(), ghosted};
}

void TwoQPolicy::on_access(const storage::AtomId& atom) {
    const auto s = slots_.find(atom.key().value());
    assert(s != util::SlotIndex::kNone);
    if (slots_[s].in_am) am_.splice(am_.begin(), am_, slots_[s].where);  // LRU refresh
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
    const auto s = slots_.find(atom.key().value());
    assert(s != util::SlotIndex::kNone);
    if (slots_[s].in_am) {
        am_.erase(slots_[s].where);
    } else {
        a1in_.erase(slots_[s].where);
        remember_ghost(atom);
    }
    slots_.erase(atom.key().value());
}

bool TwoQPolicy::audit(const std::vector<storage::AtomId>& resident) const {
    bool ok = slots_.audit();
    ok &= a1out_.audit();
    ok &= JAWS_AUDIT_CHECK(
        slots_.size() == resident.size() && a1in_.size() + am_.size() == resident.size(),
        "TwoQPolicy: queue sizes diverged from the cache's resident set");
    const auto walk = [&](const std::list<storage::AtomId>& queue, bool in_am) {
        for (auto it = queue.begin(); it != queue.end(); ++it) {
            const auto s = slots_.find(it->key().value());
            const bool linked = s != util::SlotIndex::kNone && slots_[s].in_am == in_am &&
                                slots_[s].where == it;
            ok &= JAWS_AUDIT_CHECK(linked, "TwoQPolicy: queue node unlinked from the slot index");
            ok &= JAWS_AUDIT_CHECK(std::binary_search(resident.begin(), resident.end(), *it),
                                   "TwoQPolicy: tracking an atom the cache does not hold");
        }
    };
    walk(a1in_, false);
    walk(am_, true);
    ok &= JAWS_AUDIT_CHECK(a1out_.size() == a1out_fifo_.size() && a1out_.size() <= ghost_cap_,
                           "TwoQPolicy: ghost bookkeeping inconsistent");
    for (auto it = a1out_fifo_.begin(); it != a1out_fifo_.end(); ++it) {
        const auto s = a1out_.find(it->key().value());
        ok &= JAWS_AUDIT_CHECK(s != util::SlotIndex::kNone && a1out_[s] == it,
                               "TwoQPolicy: ghost FIFO entry unlinked from the ghost index");
    }
    return ok;
}

}  // namespace jaws::cache
