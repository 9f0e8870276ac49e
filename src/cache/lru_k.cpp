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

LruKPolicy::Rank LruKPolicy::rank_of(const storage::AtomId& atom,
                                     const History& h) const noexcept {
    return Rank{h.refs.size() < k_ ? 0 : h.ref(k_ - 1), h.ref(0), atom};
}

void LruKPolicy::on_insert(const storage::AtomId& atom) {
    auto it = history_.find(atom);
    if (it == history_.end()) {
        if (spare_history_.empty()) {
            it = history_.try_emplace(atom).first;
        } else {
            spare_history_.key() = atom;
            it = history_.insert(std::move(spare_history_)).position;
            it->second.refs.clear();
        }
    }
    History& h = it->second;
    assert(!h.resident);
    touch(h);
    h.resident = true;
    if (spare_rank_.empty()) {
        h.rank = index_.insert(rank_of(atom, h)).first;
    } else {
        spare_rank_.value() = rank_of(atom, h);
        h.rank = index_.insert(std::move(spare_rank_)).position;
    }
}

void LruKPolicy::on_access(const storage::AtomId& atom) {
    const auto it = history_.find(atom);
    assert(it != history_.end() && it->second.resident);
    History& h = it->second;
    // Re-rank in place: the extracted node is reused, so a hit allocates
    // nothing.
    Index::node_type node = index_.extract(h.rank);
    touch(h);
    node.value() = rank_of(atom, h);
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
    const auto it = history_.find(atom);
    assert(it != history_.end() && it->second.resident);
    spare_rank_ = index_.extract(it->second.rank);
    it->second.resident = false;
    // Retain the history per LRU-K so a quick re-admission keeps its rank,
    // but bound the table.
    retained_fifo_.push_back(atom);
    while (retained_fifo_.size() > retained_cap_) {
        const storage::AtomId old = retained_fifo_.front();
        retained_fifo_.pop_front();
        const auto h = history_.find(old);
        if (h != history_.end() && !h->second.resident)
            spare_history_ = history_.extract(h);
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
    for (const storage::AtomId& atom : resident) {
        const auto h = history_.find(atom);
        if (!check(h != history_.end(), "resident atom has history",
                   "LruKPolicy: resident atom without a reference history"))
            continue;
        const History& hist = h->second;
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
        check(h->second.resident && *h->second.rank == rank_of(atom, h->second),
              "index entry at the current rank",
              "LruKPolicy: resident atom missing from the index or ranked stale");
    }
    for (const Rank& r : index_)
        check(is_resident(r.atom), "index entry is resident",
              "LruKPolicy: index holds a non-resident atom");
    // Every retained (non-resident) history is reachable from the FIFO.
    for (const storage::AtomId& atom : retained_fifo_) {
        if (is_resident(atom)) continue;
        const auto h = history_.find(atom);
        check(h == history_.end() || !h->second.resident, "retained history not resident",
              "LruKPolicy: evicted atom still marked resident");
    }
    check(history_.size() <= resident.size() + retained_fifo_.size(),
          "history bounded by residents + retained",
          "LruKPolicy: history table holds unreachable entries");
    check(retained_fifo_.size() <= retained_cap_ + resident.size(),
          "retained history bounded",
          "LruKPolicy: retained-history FIFO exceeds its bound");
    return ok;
}

}  // namespace jaws::cache
