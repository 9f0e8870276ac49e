#include "cache/urc.h"

#include <cassert>
#include <limits>
#include <map>

#include "util/contracts.h"

namespace jaws::cache {

void UrcPolicy::on_insert(const storage::AtomId& atom) {
    last_touch_[last_touch_.insert(atom.key().value())] = ++tick_;
}

void UrcPolicy::on_access(const storage::AtomId& atom) {
    const auto s = last_touch_.find(atom.key().value());
    assert(s != util::SlotIndex::kNone);
    last_touch_[s] = ++tick_;
}

storage::AtomId UrcPolicy::pick_victim() {
    assert(!last_touch_.empty());
    // Rank by (mean U_t of the atom's time step, atom's own U_t, last touch):
    // evict the atom minimising that tuple. Touch ticks are unique, so the
    // tuple orders the residents strictly and the slot order of the scan
    // cannot reach the result. A linear scan over residents (a few hundred
    // atoms) keeps the structure simple; its real cost is measured by the
    // cache's overhead timer.
    auto victim = util::SlotIndex::kNone;
    double best_step = std::numeric_limits<double>::max();
    double best_atom = std::numeric_limits<double>::max();
    std::uint64_t best_touch = std::numeric_limits<std::uint64_t>::max();
    std::map<std::uint32_t, double> step_mean;
    for (util::SlotIndex::Slot s = 0; s < last_touch_.slots(); ++s) {
        if (!last_touch_.live(s)) continue;
        const auto atom = storage::AtomId::from_key(storage::AtomKey{last_touch_.key(s)});
        const auto [at, fresh] = step_mean.try_emplace(atom.timestep);
        if (fresh) at->second = oracle_.timestep_mean_utility(atom.timestep);
        const double mean = at->second;
        const double own = oracle_.atom_utility(atom);
        const std::uint64_t touch = last_touch_[s];
        // Exact tie-breaks: mean and own are computed identically for every
        // resident of a step, so equal doubles really are the same value; a
        // tolerance would make the victim depend on scan order.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wfloat-equal"
        const bool step_tie = mean == best_step, atom_tie = own == best_atom;
#pragma GCC diagnostic pop
        const bool better = victim == util::SlotIndex::kNone || mean < best_step ||
                            (step_tie && (own < best_atom || (atom_tie && touch < best_touch)));
        if (better) {
            best_step = mean;
            best_atom = own;
            best_touch = touch;
            victim = s;
        }
    }
    return storage::AtomId::from_key(storage::AtomKey{last_touch_.key(victim)});
}

void UrcPolicy::on_evict(const storage::AtomId& atom) { last_touch_.erase(atom.key().value()); }

bool UrcPolicy::audit(const std::vector<storage::AtomId>& resident) const {
    bool ok = last_touch_.audit();
    ok &= JAWS_AUDIT_CHECK(last_touch_.size() == resident.size(),
                           "UrcPolicy: tracked size diverged from the cache's resident set");
    for (const storage::AtomId& atom : resident) {
        const auto s = last_touch_.find(atom.key().value());
        ok &= JAWS_AUDIT_CHECK(s != util::SlotIndex::kNone && last_touch_[s] <= tick_,
                               "UrcPolicy: resident atom untracked or touched after the counter");
    }
    return ok;
}

}  // namespace jaws::cache
