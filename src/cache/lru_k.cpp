#include "cache/lru_k.h"

#include <algorithm>
#include <cassert>

#include "util/contracts.h"

namespace jaws::cache {

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

LruKPolicy::Rank LruKPolicy::rank_of(Slot s) const noexcept {
    const History& h = histories_[s];
    return Rank{h.refs.size() < k_ ? 0 : h.ref(k_ - 1), h.ref(0),
                storage::AtomId::from_key(storage::AtomKey{histories_.key(s)})};
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
    if (spare_rank_.empty()) {
        h.rank = index_.insert(rank_of(s)).first;
    } else {
        spare_rank_.value() = rank_of(s);
        h.rank = index_.insert(std::move(spare_rank_)).position;
    }
}

void LruKPolicy::on_access(const storage::AtomId& atom) {
    const Slot s = slot_of(atom);
    assert(s != util::SlotIndex::kNone && histories_[s].resident);
    History& h = histories_[s];
    // Re-rank in place: the extracted node is reused, so a hit allocates
    // nothing.
    Index::node_type node = index_.extract(h.rank);
    touch(h);
    node.value() = rank_of(s);
    h.rank = index_.insert(std::move(node)).position;
}

storage::AtomId LruKPolicy::pick_victim() {
    assert(!index_.empty());
    // The oldest K-th reference evicts first; atoms with fewer than K
    // references (kth_ref == 0) are preferred, with the least recent first
    // reference breaking ties.
    return index_.begin()->atom;
}

void LruKPolicy::on_evict(const storage::AtomId& atom) {
    const Slot s = slot_of(atom);
    assert(s != util::SlotIndex::kNone && histories_[s].resident);
    spare_rank_ = index_.extract(histories_[s].rank);
    histories_[s].resident = false;
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
    ok &= JAWS_AUDIT_CHECK(index_.size() == resident.size(),
                           "LruKPolicy: index size diverged from the cache's resident set");
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
        ok &= JAWS_AUDIT_CHECK(hist.resident && *hist.rank == rank_of(s),
                               "LruKPolicy: resident atom missing from the index or ranked stale");
    }
    for (const Rank& r : index_)
        ok &= JAWS_AUDIT_CHECK(is_resident(r.atom), "LruKPolicy: index holds a non-resident atom");
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
