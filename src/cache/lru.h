// Plain least-recently-used replacement: LRU-K with K = 1.
//
// With K = 1 the K-th most recent reference is the most recent one, so LRU-K
// evicts the atom whose last reference is oldest, which is LRU's victim
// (recency ticks are unique). A re-admitted atom's single reference is
// overwritten at once, so no history is retained past eviction.
//
// Not evaluated in the paper's Table I by itself, but the natural baseline
// below LRU-K; also used by tests to pin down BufferCache semantics.
#pragma once

#include "cache/lru_k.h"

namespace jaws::cache {

/// Classic LRU: evict the least recently inserted-or-accessed atom.
class LruPolicy final : public LruKPolicy {
  public:
    LruPolicy() : LruKPolicy(1, 0) {}
};

}  // namespace jaws::cache
