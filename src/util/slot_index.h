// Open-addressed map from a 64-bit id to a 32-bit slot, and the chunked
// slot table it points into.
//
// The descriptor hot path keeps its per-id state — cache residents, LRU-K
// histories, workload queues, query runtimes, precedence-graph nodes — in
// dense slot tables, and SlotIndex is the one map from an id to its slot.
// It is a linear-probing table of 16-byte cells (key, slot) with a
// power-of-two size, a Fibonacci hash (the key times 2^64/phi, top bits) and
// a maximum load of 3/4, so a lookup is one multiply and, on average, a
// probe or two within one cache line, with no pointer chasing and no
// per-entry allocation. Erase shifts the following cells of the probe run
// back instead of leaving a tombstone, so a run never holds a hole and
// lookups never slow down after churn.
//
// The index deliberately has no iteration API: a cell's position is a
// function of the hash and the table's history, so walking the cells would
// let hash order reach a decision. Owners iterate their dense slot tables
// instead (see the unordered-iteration rule in scripts/jaws_analyzer.py).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace jaws::util {

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

/// Dense slot storage for a table that only grows (owners recycle slots
/// through their own free lists). Elements live in fixed-size chunks that
/// never move, so growth allocates one chunk and copies nothing: references
/// stay valid, the footprint never doubles for a moment the way a growing
/// vector's does, and a slot is two loads away.
template <typename T, unsigned kChunkBits = 7>
class SlotTable {
  public:
    using Slot = SlotIndex::Slot;

    T& operator[](Slot s) noexcept { return chunks_[s >> kChunkBits][s & kChunkMask]; }
    const T& operator[](Slot s) const noexcept {
        return chunks_[s >> kChunkBits][s & kChunkMask];
    }

    /// Append a value-initialised element; returns its slot.
    Slot emplace_back() {
        if ((size_ & kChunkMask) == 0)
            chunks_.push_back(std::make_unique<T[]>(std::size_t{kChunkMask} + 1));
        return size_++;
    }

    /// Slots handed out so far.
    Slot size() const noexcept { return size_; }

  private:
    static constexpr Slot kChunkMask = (Slot{1} << kChunkBits) - 1;

    std::vector<std::unique_ptr<T[]>> chunks_;
    Slot size_ = 0;
};

}  // namespace jaws::util
