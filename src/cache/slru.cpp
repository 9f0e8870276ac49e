#include "cache/slru.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "util/contracts.h"

namespace jaws::cache {

SlruPolicy::SlruPolicy(std::size_t capacity_atoms, double protected_fraction)
    : protected_cap_(std::max<std::size_t>(
          1, static_cast<std::size_t>(static_cast<double>(capacity_atoms) *
                                      protected_fraction))) {}

void SlruPolicy::on_insert(const storage::AtomId& atom) {
    assert(!slots_.contains(atom));
    probationary_.push_front(atom);
    slots_[atom] = Slot{probationary_.begin(), false, 1};
}

void SlruPolicy::on_access(const storage::AtomId& atom) {
    const auto it = slots_.find(atom);
    assert(it != slots_.end());
    Slot& slot = it->second;
    ++slot.run_accesses;
    auto& segment = slot.is_protected ? protected_ : probationary_;
    segment.splice(segment.begin(), segment, slot.where);
}

storage::AtomId SlruPolicy::pick_victim() {
    // Victims come from the probationary segment's LRU end; the protected
    // segment is only raided when nothing is on probation.
    if (!probationary_.empty()) return probationary_.back();
    assert(!protected_.empty());
    return protected_.back();
}

void SlruPolicy::on_evict(const storage::AtomId& atom) {
    const auto it = slots_.find(atom);
    assert(it != slots_.end());
    auto& segment = it->second.is_protected ? protected_ : probationary_;
    segment.erase(it->second.where);
    slots_.erase(it);
}

void SlruPolicy::demote_to_probationary_mru(const storage::AtomId& atom) {
    Slot& slot = slots_.at(atom);
    assert(slot.is_protected);
    protected_.erase(slot.where);
    probationary_.push_front(atom);
    slot.where = probationary_.begin();
    slot.is_protected = false;
}

void SlruPolicy::on_run_boundary() {
    // Promote the most frequently accessed atoms of the finished run into the
    // protected segment (paper: "at the end of each run of the workload, SLRU
    // promotes the most frequently accessed atoms").
    std::vector<std::pair<std::uint64_t, storage::AtomId>> ranked;
    ranked.reserve(slots_.size());
    // jaws-lint: allow(unordered-iteration) -- the sort below imposes a total
    // order (count desc, atom id asc), so hash layout cannot leak into the
    // promotion cutoff.
    for (const auto& [atom, slot] : slots_)
        if (slot.run_accesses > 0) ranked.emplace_back(slot.run_accesses, atom);
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
        if (a.first != b.first) return a.first > b.first;
        return a.second < b.second;  // break count ties deterministically
    });

    const std::size_t take = std::min(protected_cap_, ranked.size());
    // Demote current protected members not re-promoted this run.
    std::vector<storage::AtomId> keep;
    keep.reserve(take);
    for (std::size_t i = 0; i < take; ++i) keep.push_back(ranked[i].second);

    std::vector<storage::AtomId> to_demote;
    for (const auto& atom : protected_)
        if (std::find(keep.begin(), keep.end(), atom) == keep.end())
            to_demote.push_back(atom);
    for (const auto& atom : to_demote) demote_to_probationary_mru(atom);

    // Promote the winners (most frequent ends up at the protected MRU end).
    for (std::size_t i = take; i-- > 0;) {
        const storage::AtomId atom = ranked[i].second;
        Slot& slot = slots_.at(atom);
        if (slot.is_protected) {
            protected_.splice(protected_.begin(), protected_, slot.where);
        } else {
            probationary_.erase(slot.where);
            protected_.push_front(atom);
            slot.where = protected_.begin();
            slot.is_protected = true;
        }
    }
    // jaws-lint: allow(unordered-iteration) -- order-insensitive reset.
    for (auto& [atom, slot] : slots_) slot.run_accesses = 0;
}

bool SlruPolicy::audit(const std::vector<storage::AtomId>& resident) const {
    bool ok = JAWS_AUDIT_CHECK(
        slots_.size() == resident.size() &&
            probationary_.size() + protected_.size() == resident.size(),
        "SlruPolicy: segment sizes diverged from the cache's resident set");
    ok &= JAWS_AUDIT_CHECK(protected_.size() <= protected_cap_,
                           "SlruPolicy: protected segment over capacity");
    const auto walk = [&](const std::list<storage::AtomId>& segment, bool is_protected) {
        for (auto it = segment.begin(); it != segment.end(); ++it) {
            const auto slot = slots_.find(*it);
            const bool linked = slot != slots_.end() &&
                                slot->second.is_protected == is_protected &&
                                slot->second.where == it;
            ok &= JAWS_AUDIT_CHECK(linked, "SlruPolicy: segment node unlinked from the slot index");
            ok &= JAWS_AUDIT_CHECK(std::binary_search(resident.begin(), resident.end(), *it),
                                   "SlruPolicy: tracking an atom the cache does not hold");
        }
    };
    walk(probationary_, false);
    walk(protected_, true);
    return ok;
}

}  // namespace jaws::cache
