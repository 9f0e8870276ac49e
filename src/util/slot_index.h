// Id-keyed slot tables: an open-addressed map from a 64-bit id to a 32-bit
// slot, the chunked slot pool it points into, and the map that joins them.
//
// The per-id tables in src/ — cache residents and every replacement
// policy's bookkeeping, workload queues and their sub-query blocks, query
// runtimes and deadlines, precedence-graph nodes, pending events, prefetch
// trajectories, per-atom fault attempts — keep their state in dense slots, and
// this header is the one place that decides how an id finds its slot, takes
// one and gives it back:
//
//   * SlotIndex is a linear-probing table of 16-byte cells (key, slot) with a
//     power-of-two size, a Fibonacci hash (the key times 2^64/phi, top bits)
//     and a maximum load of 3/4, so a lookup is one multiply and, on average,
//     a probe or two within one cache line, with no pointer chasing and no
//     per-entry allocation. Erase shifts the following cells of the probe run
//     back instead of leaving a tombstone, so a run never holds a hole and
//     lookups never slow down after churn.
//   * SlotPool<T> keeps its elements in fixed-size chunks that never move and
//     recycles slots last-in-first-out, so the slot an owner frees is the
//     next one it takes.
//   * SlotMap<T> is a SlotPool found by key through a SlotIndex. It stores
//     each slot's key, so its audit() proves that the index and the pool
//     agree; owners audit only their own state.
//
// None of them has an iteration API in hash order: a cell's position is a
// function of the hash and the table's history, so walking the cells would
// let hash order reach a decision. Owners walk slots 0 .. slots() instead,
// an order that follows only the sequence of inserts and erases. The
// standard hash containers have no such order, and the analyzer's
// unordered-container rule (scripts/jaws_analyzer.py) keeps them out of src/.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/contracts.h"

namespace jaws::util {

/// Open-addressed map from a 64-bit id to a 32-bit slot.
class SlotIndex {
  public:
    using Slot = std::uint32_t;
    /// "No slot": find() of an absent key; also marks an empty cell.
    static constexpr Slot kNone = ~Slot{0};

    /// Slot of `key`, or kNone when it is absent.
    Slot find(std::uint64_t key) const noexcept {
        if (size_ == 0) return kNone;
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            const Cell& c = cells_[i];
            if (c.slot == kNone) return kNone;
            if (c.key == key) return c.slot;
        }
    }

    bool contains(std::uint64_t key) const noexcept { return find(key) != kNone; }

    /// Map the absent `key` to `slot` (not kNone). Grows the table first
    /// when the insert would push the load past 3/4.
    void insert(std::uint64_t key, Slot slot) {
        assert(slot != kNone && find(key) == kNone);
        if (4 * (size_ + 1) > 3 * cells_.size()) grow();
        place(Cell{key, slot});
        ++size_;
    }

    /// Size the table for `n` entries up front, so inserting them rehashes
    /// nothing.
    void reserve(std::size_t n) {
        while (4 * n > 3 * cells_.size()) grow();
    }

    /// Remove `key`; returns the slot it mapped to, or kNone when absent.
    Slot erase(std::uint64_t key) noexcept;

    /// Drop every entry, keeping the table's storage.
    void clear() noexcept;

    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }

    /// Self-check: a power-of-two table at load <= 3/4, `size()` occupied
    /// cells, every key stored once, and no empty cell between a key's home
    /// cell and the cell holding it (the invariant find() relies on).
    /// Reports through util::contract_violation; returns true when clean.
    bool audit() const;

  private:
    struct Cell {
        std::uint64_t key = 0;
        Slot slot = kNone;
    };

    /// 2^64 / golden ratio: multiplying by it spreads consecutive and
    /// bit-patterned ids evenly over the top bits.
    static constexpr std::uint64_t kFibonacci = 0x9E3779B97F4A7C15ULL;
    static constexpr std::size_t kMinCells = 16;

    std::size_t home(std::uint64_t key) const noexcept {
        return static_cast<std::size_t>((key * kFibonacci) >> shift_);
    }
    /// Store `cell` in the first empty cell of its probe run.
    void place(const Cell& cell) noexcept {
        std::size_t i = home(cell.key);
        while (cells_[i].slot != kNone) i = (i + 1) & mask_;
        cells_[i] = cell;
    }
    /// Double the table (or allocate the first one) and re-place every cell.
    void grow();

    std::vector<Cell> cells_;
    std::size_t mask_ = 0;
    unsigned shift_ = 63;  ///< 64 - log2(cells); set by grow().
    std::size_t size_ = 0;
};

/// Dense slot storage with a last-in-first-out free list. Elements live in
/// fixed-size chunks that never move, so growth allocates one chunk and
/// copies nothing: references stay valid, the footprint never doubles for a
/// moment the way a growing vector's does, and a slot is two loads away.
///
/// A released slot keeps its element: the acquire() that reuses it hands the
/// element back as its last owner left it, so owners reset only the fields
/// they need and storage an element holds (a vector's capacity) is reused.
template <typename T, unsigned kChunkBits = 7>
class SlotPool {
  public:
    using Slot = SlotIndex::Slot;

    T& operator[](Slot s) noexcept { return chunks_[s >> kChunkBits][s & kChunkMask]; }
    const T& operator[](Slot s) const noexcept {
        return chunks_[s >> kChunkBits][s & kChunkMask];
    }

    /// Take the slot released last, or else a fresh value-initialised one.
    Slot acquire() {
        Slot s;
        if (!free_.empty()) {
            s = free_.back();
            free_.pop_back();
            live_[s] = 1;
        } else {
            if ((slots_ >> kChunkBits) == chunks_.size())
                chunks_.push_back(std::make_unique<T[]>(std::size_t{kChunkMask} + 1));
            s = slots_++;
            live_.push_back(1);
        }
        return s;
    }

    /// Give back the live slot `s`; its element is kept for the next acquire().
    void release(Slot s) {
        assert(live(s));
        live_[s] = 0;
        free_.push_back(s);
    }

    /// Free every slot, keeping the chunks and their elements: the next
    /// acquires hand out slots 0, 1, 2, ... again.
    void clear() noexcept {
        free_.clear();
        live_.clear();
        slots_ = 0;
    }

    /// Slots handed out since construction or clear(), live or free. Owners
    /// iterate 0 .. slots() and skip the slots that are not live().
    Slot slots() const noexcept { return slots_; }
    /// Whether `s` (< slots()) is acquired and not released.
    bool live(Slot s) const noexcept { return live_[s] != 0; }
    /// Live slots.
    std::size_t size() const noexcept { return slots_ - free_.size(); }

    /// Self-check: the free list names every slot that is not live exactly
    /// once. Reports through util::contract_violation; returns true when
    /// clean.
    bool audit() const {
        bool ok = JAWS_AUDIT_CHECK(live_.size() == slots_ && free_.size() <= slots_,
                                   "SlotPool: live flags or free list longer than the pool");
        std::vector<bool> listed(slots_, false);
        for (const Slot s : free_) {
            const bool fresh = s < slots_ && s < live_.size() && !live_[s] && !listed[s];
            ok &= JAWS_AUDIT_CHECK(fresh, "SlotPool: free list names a live, unissued or "
                                          "repeated slot");
            if (fresh) listed[s] = true;
        }
        const auto held = static_cast<std::size_t>(std::count(live_.begin(), live_.end(), 1));
        ok &= JAWS_AUDIT_CHECK(held + free_.size() == slots_,
                               "SlotPool: a free slot is missing from the free list");
        return ok;
    }

  private:
    static constexpr Slot kChunkMask = (Slot{1} << kChunkBits) - 1;

    std::vector<std::unique_ptr<T[]>> chunks_;
    std::vector<std::uint8_t> live_;  ///< Per slot handed out: 1 while acquired.
    std::vector<Slot> free_;  ///< Released slots; the back is reused first.
    Slot slots_ = 0;
};

/// A SlotPool found by 64-bit key through a SlotIndex. Each slot stores its
/// key next to its element, so the map can check that its index and its
/// pool agree. Slots are recycled as in SlotPool: the slot an erase frees is
/// the one the next insert takes, element and all.
template <typename T, unsigned kChunkBits = 7>
class SlotMap {
  public:
    using Slot = SlotIndex::Slot;
    static constexpr Slot kNone = SlotIndex::kNone;

    /// Slot of `key`, or kNone when it is absent.
    Slot find(std::uint64_t key) const noexcept { return index_.find(key); }
    bool contains(std::uint64_t key) const noexcept { return index_.contains(key); }

    /// Give the absent `key` a slot: the one erased last, or else a fresh
    /// value-initialised one. A reused slot's element is as its last owner
    /// left it.
    Slot insert(std::uint64_t key) {
        assert(!contains(key));
        const Slot s = pool_.acquire();
        pool_[s].key = key;
        index_.insert(key, s);
        return s;
    }

    /// The element of `key`, as std::map::operator[] gives it: an absent
    /// key is inserted first, with a value-initialised element.
    T& get_or_insert(std::uint64_t key) {
        Slot s = find(key);
        if (s == kNone) {
            s = insert(key);
            pool_[s].value = T{};
        }
        return pool_[s].value;
    }

    /// Remove `key`; returns the slot it held (its element is kept for the
    /// next insert), or kNone when it is absent.
    Slot erase(std::uint64_t key) {
        const Slot s = index_.erase(key);
        if (s != kNone) pool_.release(s);
        return s;
    }

    /// Drop every key, keeping the storage: the next inserts take slots 0,
    /// 1, 2, ... again.
    void clear() noexcept {
        index_.clear();
        pool_.clear();
    }

    /// Size the index for `n` keys up front, so inserting them rehashes
    /// nothing.
    void reserve(std::size_t n) { index_.reserve(n); }

    T& operator[](Slot s) noexcept { return pool_[s].value; }
    const T& operator[](Slot s) const noexcept { return pool_[s].value; }
    /// Key of the live slot `s`.
    std::uint64_t key(Slot s) const noexcept { return pool_[s].key; }

    /// Slots handed out since construction or clear(), live or free.
    Slot slots() const noexcept { return pool_.slots(); }
    /// Whether `s` (< slots()) holds a key.
    bool live(Slot s) const noexcept { return pool_.live(s); }
    /// Keys held.
    std::size_t size() const noexcept { return pool_.size(); }
    bool empty() const noexcept { return size() == 0; }

    /// Self-check: the index and the pool audit clean, and the index maps
    /// exactly the live slots' keys, each to its own slot. Reports through
    /// util::contract_violation; returns true when clean.
    bool audit() const {
        bool ok = index_.audit();
        ok &= pool_.audit();
        ok &= JAWS_AUDIT_CHECK(index_.size() == pool_.size(),
                               "SlotMap: index size differs from the live slot count");
        for (Slot s = 0; s < pool_.slots(); ++s)
            if (pool_.live(s))
                ok &= JAWS_AUDIT_CHECK(index_.find(pool_[s].key) == s,
                                       "SlotMap: a live slot's key is not indexed at it");
        return ok;
    }

  private:
    struct Entry {
        std::uint64_t key = 0;
        T value{};
    };

    SlotPool<Entry, kChunkBits> pool_;
    SlotIndex index_;
};

}  // namespace jaws::util
