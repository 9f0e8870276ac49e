#include "cache/urc.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "util/contracts.h"

namespace jaws::cache {

void UrcPolicy::on_insert(const storage::AtomId& atom) {
    assert(!resident_.contains(atom));
    resident_.insert(atom);
    last_touch_[atom] = ++tick_;
}

void UrcPolicy::on_access(const storage::AtomId& atom) {
    assert(resident_.contains(atom));
    last_touch_[atom] = ++tick_;
}

storage::AtomId UrcPolicy::pick_victim() {
    assert(!resident_.empty());
    // Rank by (mean U_t of the atom's time step, atom's own U_t, recency):
    // evict the atom minimising that tuple. A linear scan over residents
    // (a few hundred atoms) keeps the structure simple; its real cost is
    // measured by the cache's overhead timer.
    const storage::AtomId* victim = nullptr;
    double best_step = std::numeric_limits<double>::max();
    double best_atom = std::numeric_limits<double>::max();
    std::uint64_t best_touch = std::numeric_limits<std::uint64_t>::max();
    std::unordered_map<std::uint32_t, double> step_mean;
    // jaws-lint: allow(unordered-iteration) -- the minimised key
    // (step mean, atom utility, last touch, atom id) is a strict total
    // order over residents (touch ticks are unique), so the winner does
    // not depend on hash iteration order.
    for (const auto& atom : resident_) {
        const auto found = step_mean.find(atom.timestep);
        const double mean = found != step_mean.end()
                                ? found->second
                                : (step_mean[atom.timestep] =
                                       oracle_.timestep_mean_utility(atom.timestep));
        const double own = oracle_.atom_utility(atom);
        const std::uint64_t touch = last_touch_.at(atom);
        // jaws-lint: allow(float-equality) -- exact tie-breaks: mean and own
        // are computed identically for every resident of a step, so equal
        // doubles really are the same value; a tolerance would make the
        // victim depend on scan order.
        const bool step_tie = mean == best_step, atom_tie = own == best_atom;
        const bool better =
            victim == nullptr || mean < best_step ||
            (step_tie &&
             (own < best_atom ||
              (atom_tie &&
               (touch < best_touch || (touch == best_touch && atom < *victim)))));
        if (better) {
            best_step = mean;
            best_atom = own;
            best_touch = touch;
            victim = &atom;
        }
    }
    return *victim;
}

void UrcPolicy::on_evict(const storage::AtomId& atom) {
    resident_.erase(atom);
    last_touch_.erase(atom);
}

bool UrcPolicy::audit(const std::vector<storage::AtomId>& resident) const {
    bool ok = JAWS_AUDIT_CHECK(
        resident_.size() == resident.size() && last_touch_.size() == resident.size(),
        "UrcPolicy: tracked size diverged from the cache's resident set");
    for (const storage::AtomId& atom : resident) {
        ok &= JAWS_AUDIT_CHECK(resident_.contains(atom),
                               "UrcPolicy: resident atom missing from the tracked set");
        const auto touch = last_touch_.find(atom);
        ok &= JAWS_AUDIT_CHECK(touch != last_touch_.end() && touch->second <= tick_,
                               "UrcPolicy: recency tick missing or ahead of the counter");
    }
    return ok;
}

}  // namespace jaws::cache
