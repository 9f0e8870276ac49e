#include "cache/lru.h"

#include <algorithm>
#include <cassert>

#include "util/contracts.h"

namespace jaws::cache {

void LruPolicy::on_insert(const storage::AtomId& atom) {
    assert(!where_.contains(atom));
    order_.push_front(atom);
    where_[atom] = order_.begin();
}

void LruPolicy::on_access(const storage::AtomId& atom) {
    const auto it = where_.find(atom);
    assert(it != where_.end());
    order_.splice(order_.begin(), order_, it->second);
}

storage::AtomId LruPolicy::pick_victim() {
    assert(!order_.empty());
    return order_.back();
}

void LruPolicy::on_evict(const storage::AtomId& atom) {
    const auto it = where_.find(atom);
    assert(it != where_.end());
    order_.erase(it->second);
    where_.erase(it);
}

bool LruPolicy::audit(const std::vector<storage::AtomId>& resident) const {
    bool ok = JAWS_AUDIT_CHECK(
        where_.size() == resident.size() && order_.size() == resident.size(),
        "LruPolicy: tracked size diverged from the cache's resident set");
    for (auto it = order_.begin(); it != order_.end(); ++it) {
        const auto slot = where_.find(*it);
        ok &= JAWS_AUDIT_CHECK(slot != where_.end() && slot->second == it,
                               "LruPolicy: recency-list node unlinked from the index");
        ok &= JAWS_AUDIT_CHECK(std::binary_search(resident.begin(), resident.end(), *it),
                               "LruPolicy: tracking an atom the cache does not hold");
    }
    return ok;
}

}  // namespace jaws::cache
