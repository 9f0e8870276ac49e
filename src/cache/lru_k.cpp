#include "cache/lru_k.h"

#include <algorithm>
#include <cassert>
#include <functional>

#include "util/contracts.h"

namespace jaws::cache {

namespace {
/// Dead entries the heap may hold beyond one per resident before it is
/// compacted: a clear() that empties a small cache need not compact at once.
constexpr std::size_t kHeapSlack = 16;
}  // namespace

LruKPolicy::LruKPolicy(unsigned k, std::size_t retained_history)
    : k_(k == 0 ? 1 : k), retained_cap_(retained_history) {}

void LruKPolicy::touch(History& h) {
    if (h.refs.size() < k_) {
        h.refs.push_back(++tick_);
        h.newest = h.refs.size() - 1;
    } else {
        h.newest = (h.newest + 1) % k_;  // overwrite the oldest
        h.refs[h.newest] = ++tick_;
    }
}

LruKPolicy::Entry LruKPolicy::rank_of(Slot s) const noexcept {
    const History& h = histories_[s];
    return Entry{h.refs.size() < k_ ? 0 : h.ref(k_ - 1), h.ref(0), s};
}

void LruKPolicy::push_rank(Slot s) {
    const Entry e = rank_of(s);
    histories_[s].heaped = e.recent;
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<Entry>{});
}

void LruKPolicy::pop_top() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<Entry>{});
    heap_.pop_back();
}

void LruKPolicy::on_insert(const storage::AtomId& atom) {
    Slot s = slot_of(atom);
    if (s == util::SlotIndex::kNone) {
        s = histories_.insert(atom.key().value());
        histories_[s].refs.clear();  // a reused slot keeps its ring's storage
    }
    History& h = histories_[s];
    assert(!h.resident);
    touch(h);
    h.resident = true;
    ++residents_;
    push_rank(s);
}

void LruKPolicy::on_access(const storage::AtomId& atom) {
    const Slot s = slot_of(atom);
    assert(s != util::SlotIndex::kNone && histories_[s].resident);
    // The heap entry keeps its older, lower key until it surfaces at the top.
    touch(histories_[s]);
}

storage::AtomId LruKPolicy::pick_victim() {
    assert(residents_ > 0);
    // The oldest K-th reference evicts first; atoms with fewer than K
    // references (kth_ref == 0) are preferred, with the least recent
    // reference breaking ties.
    for (;;) {
        const Entry top = heap_.front();
        if (!live(top)) {
            pop_top();  // evicted, dropped or superseded
            continue;
        }
        if (histories_[top.slot].ref(0) == top.recent)
            return storage::AtomId::from_key(storage::AtomKey{histories_.key(top.slot)});
        // Referenced since it was pushed: re-rank it at its current key,
        // which is larger, and look at the new top.
        pop_top();
        push_rank(top.slot);
    }
}

void LruKPolicy::on_evict(const storage::AtomId& atom) {
    const Slot s = slot_of(atom);
    assert(s != util::SlotIndex::kNone && histories_[s].resident);
    // A victim's live entry is the top; any other evicted atom's entry dies
    // in place and is popped or compacted later.
    if (live(heap_.front()) && heap_.front().slot == s) pop_top();
    histories_[s].resident = false;
    --residents_;
    if (heap_.size() > 2 * residents_ + kHeapSlack) {
        std::erase_if(heap_, [this](const Entry& e) { return !live(e); });
        std::make_heap(heap_.begin(), heap_.end(), std::greater<Entry>{});
    }
    // Retain the history per LRU-K so a quick re-admission keeps its rank,
    // but bound the table.
    retained_fifo_.push_back(atom);
    while (retained_fifo_.size() > retained_cap_) {
        const storage::AtomId old = retained_fifo_.front();
        retained_fifo_.pop_front();
        const Slot h = slot_of(old);
        if (h != util::SlotIndex::kNone && !histories_[h].resident)
            histories_.erase(old.key().value());
    }
}

bool LruKPolicy::audit(const std::vector<storage::AtomId>& resident) const {
    const auto is_resident = [&](const storage::AtomId& atom) {
        return std::binary_search(resident.begin(), resident.end(), atom);
    };
    bool ok = histories_.audit();
    ok &= JAWS_AUDIT_CHECK(residents_ == resident.size(),
                           "LruKPolicy: resident count diverged from the cache's resident set");
    ok &= JAWS_AUDIT_CHECK(std::is_heap(heap_.begin(), heap_.end(), std::greater<Entry>{}),
                           "LruKPolicy: victim heap order violated");
    ok &= JAWS_AUDIT_CHECK(heap_.size() <= 2 * resident.size() + kHeapSlack,
                           "LruKPolicy: dead heap entries not compacted");
    // Each slot's live heap entry; a second one is reported.
    std::vector<const Entry*> live_entry(histories_.slots(), nullptr);
    for (const Entry& e : heap_) {
        const bool in_map = JAWS_AUDIT_CHECK(e.slot < histories_.slots(),
                                             "LruKPolicy: heap entry past the history slots");
        ok &= in_map;
        if (!in_map || !histories_.live(e.slot) || !live(e)) continue;
        ok &= JAWS_AUDIT_CHECK(live_entry[e.slot] == nullptr,
                               "LruKPolicy: two live heap entries for one atom");
        live_entry[e.slot] = &e;
        ok &= JAWS_AUDIT_CHECK(
            is_resident(storage::AtomId::from_key(storage::AtomKey{histories_.key(e.slot)})),
            "LruKPolicy: live heap entry for a non-resident atom");
    }
    std::size_t flagged = 0;
    for (Slot s = 0; s < histories_.slots(); ++s)
        if (histories_.live(s) && histories_[s].resident) ++flagged;
    ok &= JAWS_AUDIT_CHECK(flagged == resident.size(),
                           "LruKPolicy: history marked resident for an atom the cache lacks");
    for (const storage::AtomId& atom : resident) {
        const Slot s = slot_of(atom);
        const bool tracked = JAWS_AUDIT_CHECK(
            s != util::SlotIndex::kNone, "LruKPolicy: resident atom without a reference history");
        ok &= tracked;
        if (!tracked) continue;
        const History& hist = histories_[s];
        const bool bounded = JAWS_AUDIT_CHECK(
            !hist.refs.empty() && hist.refs.size() <= k_ && hist.newest < hist.refs.size(),
            "LruKPolicy: reference history out of bounds");
        ok &= bounded;
        if (!bounded) continue;
        bool decreasing = true;
        for (std::size_t i = 1; i < hist.refs.size(); ++i)
            decreasing = decreasing && hist.ref(i - 1) > hist.ref(i);
        ok &= JAWS_AUDIT_CHECK(decreasing && hist.ref(0) <= tick_,
                               "LruKPolicy: reference history out of order");
        const Entry* e = live_entry[s];
        ok &= JAWS_AUDIT_CHECK(hist.resident && e != nullptr,
                               "LruKPolicy: resident atom without a live heap entry");
        // A reference only raises the rank, so the entry may lag behind it
        // but never run ahead.
        if (e != nullptr)
            ok &= JAWS_AUDIT_CHECK(!(*e > rank_of(s)),
                                   "LruKPolicy: heap entry ranks above the atom's current rank");
    }
    // Every retained (non-resident) history is reachable from the FIFO.
    for (const storage::AtomId& atom : retained_fifo_) {
        if (is_resident(atom)) continue;
        const Slot s = slot_of(atom);
        ok &= JAWS_AUDIT_CHECK(s == util::SlotIndex::kNone || !histories_[s].resident,
                               "LruKPolicy: evicted atom still marked resident");
    }
    ok &= JAWS_AUDIT_CHECK(histories_.size() <= resident.size() + retained_fifo_.size(),
                           "LruKPolicy: history table holds unreachable entries");
    ok &= JAWS_AUDIT_CHECK(retained_fifo_.size() <= retained_cap_ + resident.size(),
                           "LruKPolicy: retained-history FIFO exceeds its bound");
    return ok;
}

}  // namespace jaws::cache
