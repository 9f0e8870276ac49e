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
    probationary_.push_front(atom);
    slots_[slots_.insert(atom.key().value())] = Entry{probationary_.begin(), false, 1};
}

void SlruPolicy::on_access(const storage::AtomId& atom) {
    Entry& e = entry(atom);
    ++e.run_accesses;
    auto& segment = e.is_protected ? protected_ : probationary_;
    segment.splice(segment.begin(), segment, e.where);
}

storage::AtomId SlruPolicy::pick_victim() {
    // Victims come from the probationary segment's LRU end; the protected
    // segment is only raided when nothing is on probation.
    if (!probationary_.empty()) return probationary_.back();
    assert(!protected_.empty());
    return protected_.back();
}

void SlruPolicy::on_evict(const storage::AtomId& atom) {
    const Entry& e = entry(atom);
    (e.is_protected ? protected_ : probationary_).erase(e.where);
    slots_.erase(atom.key().value());
}

void SlruPolicy::demote_to_probationary_mru(const storage::AtomId& atom) {
    Entry& e = entry(atom);
    assert(e.is_protected);
    protected_.erase(e.where);
    probationary_.push_front(atom);
    e.where = probationary_.begin();
    e.is_protected = false;
}

void SlruPolicy::on_run_boundary() {
    // Promote the most frequently accessed atoms of the finished run into the
    // protected segment (paper: "at the end of each run of the workload, SLRU
    // promotes the most frequently accessed atoms").
    std::vector<std::pair<std::uint64_t, storage::AtomId>> ranked;
    ranked.reserve(slots_.size());
    for (util::SlotIndex::Slot s = 0; s < slots_.slots(); ++s)
        if (slots_.live(s) && slots_[s].run_accesses > 0)
            ranked.emplace_back(slots_[s].run_accesses, *slots_[s].where);
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
        Entry& e = entry(atom);
        if (e.is_protected) {
            protected_.splice(protected_.begin(), protected_, e.where);
        } else {
            probationary_.erase(e.where);
            protected_.push_front(atom);
            e.where = protected_.begin();
            e.is_protected = true;
        }
    }
    for (util::SlotIndex::Slot s = 0; s < slots_.slots(); ++s) slots_[s].run_accesses = 0;
}

bool SlruPolicy::audit(const std::vector<storage::AtomId>& resident) const {
    bool ok = slots_.audit();
    ok &= JAWS_AUDIT_CHECK(
        slots_.size() == resident.size() &&
            probationary_.size() + protected_.size() == resident.size(),
        "SlruPolicy: segment sizes diverged from the cache's resident set");
    ok &= JAWS_AUDIT_CHECK(protected_.size() <= protected_cap_,
                           "SlruPolicy: protected segment over capacity");
    const auto walk = [&](const std::list<storage::AtomId>& segment, bool is_protected) {
        for (auto it = segment.begin(); it != segment.end(); ++it) {
            const auto s = slots_.find(it->key().value());
            const bool linked = s != util::SlotIndex::kNone &&
                                slots_[s].is_protected == is_protected && slots_[s].where == it;
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
