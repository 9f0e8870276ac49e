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

LruKPolicy::Rank LruKPolicy::rank_of(const History& h) const noexcept {
    return Rank{h.refs.size() < k_ ? 0 : h.ref(k_ - 1), h.ref(0),
                storage::AtomId::from_key(h.atom)};
}

void LruKPolicy::on_insert(const storage::AtomId& atom) {
    Slot s = slot_of(atom);
    if (s == util::SlotIndex::kNone) {
        if (free_histories_.empty()) {
            s = histories_.emplace_back();
        } else {
            s = free_histories_.back();
            free_histories_.pop_back();
            histories_[s].refs.clear();
        }
        histories_[s].atom = atom.key();
        history_index_.insert(atom.key().value(), s);
    }
    History& h = histories_[s];
    assert(!h.resident);
    touch(h);
    h.resident = true;
    if (spare_rank_.empty()) {
        h.rank = index_.insert(rank_of(h)).first;
    } else {
        spare_rank_.value() = rank_of(h);
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
    node.value() = rank_of(h);
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
        if (h != util::SlotIndex::kNone && !histories_[h].resident) {
            history_index_.erase(old.key().value());
            free_histories_.push_back(h);
        }
    }
}

bool LruKPolicy::audit(const std::vector<storage::AtomId>& resident) const {
    bool ok = true;
    const auto check = [&](bool cond, const char* expr, const char* msg) {
        if (!cond) {
            ok = false;
            util::contract_violation(__FILE__, __LINE__, expr, msg);
        }
        return cond;
    };
    const auto is_resident = [&](const storage::AtomId& atom) {
        return std::binary_search(resident.begin(), resident.end(), atom);
    };
    check(index_.size() == resident.size(), "one index entry per resident",
          "LruKPolicy: index size diverged from the cache's resident set");
    // The history index and the slot table agree: every live slot is
    // indexed under its own atom, and no free slot is resident.
    std::vector<bool> free(histories_.size(), false);
    for (const Slot s : free_histories_)
        if (s < free.size()) free[s] = true;
    bool indexed = history_index_.audit() &&
                   history_index_.size() + free_histories_.size() == histories_.size();
    for (Slot s = 0; s < histories_.size(); ++s)
        indexed = indexed && (free[s] ? !histories_[s].resident
                                      : history_index_.find(histories_[s].atom.value()) == s);
    check(indexed, "history index maps each live history to its slot",
          "LruKPolicy: history index out of sync with the history slots");
    for (const storage::AtomId& atom : resident) {
        const Slot s = slot_of(atom);
        if (!check(s != util::SlotIndex::kNone, "resident atom has history",
                   "LruKPolicy: resident atom without a reference history"))
            continue;
        const History& hist = histories_[s];
        if (!check(!hist.refs.empty() && hist.refs.size() <= k_ &&
                       hist.newest < hist.refs.size(),
                   "1 <= |refs| <= k",
                   "LruKPolicy: reference history out of bounds"))
            continue;
        bool decreasing = true;
        for (std::size_t i = 1; i < hist.refs.size(); ++i)
            decreasing = decreasing && hist.ref(i - 1) > hist.ref(i);
        check(decreasing && hist.ref(0) <= tick_,
              "refs strictly decreasing and <= tick",
              "LruKPolicy: reference history out of order");
        check(hist.resident && *hist.rank == rank_of(hist),
              "index entry at the current rank",
              "LruKPolicy: resident atom missing from the index or ranked stale");
    }
    for (const Rank& r : index_)
        check(is_resident(r.atom), "index entry is resident",
              "LruKPolicy: index holds a non-resident atom");
    // Every retained (non-resident) history is reachable from the FIFO.
    for (const storage::AtomId& atom : retained_fifo_) {
        if (is_resident(atom)) continue;
        const Slot s = slot_of(atom);
        check(s == util::SlotIndex::kNone || !histories_[s].resident,
              "retained history not resident",
              "LruKPolicy: evicted atom still marked resident");
    }
    check(history_index_.size() <= resident.size() + retained_fifo_.size(),
          "history bounded by residents + retained",
          "LruKPolicy: history table holds unreachable entries");
    check(retained_fifo_.size() <= retained_cap_ + resident.size(),
          "retained history bounded",
          "LruKPolicy: retained-history FIFO exceeds its bound");
    return ok;
}

}  // namespace jaws::cache
