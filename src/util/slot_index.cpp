#include "util/slot_index.h"

#include <bit>

#include "util/contracts.h"

namespace jaws::util {

SlotIndex::Slot SlotIndex::erase(std::uint64_t key) noexcept {
    if (size_ == 0) return kNone;
    std::size_t hole = home(key);
    for (;; hole = (hole + 1) & mask_) {
        if (cells_[hole].slot == kNone) return kNone;
        if (cells_[hole].key == key) break;
    }
    const Slot slot = cells_[hole].slot;
    // Backward shift: walk the rest of the probe run and move back every
    // cell whose home does not lie cyclically in (hole, j], i.e. every cell
    // that find() would otherwise stop short of at the new hole.
    for (std::size_t j = (hole + 1) & mask_; cells_[j].slot != kNone; j = (j + 1) & mask_) {
        const std::size_t from_home = (j - home(cells_[j].key)) & mask_;
        if (from_home >= ((j - hole) & mask_)) {
            cells_[hole] = cells_[j];
            hole = j;
        }
    }
    cells_[hole] = Cell{};
    --size_;
    return slot;
}

void SlotIndex::clear() noexcept {
    if (size_ == 0) return;
    for (Cell& c : cells_) c = Cell{};
    size_ = 0;
}

void SlotIndex::grow() {
    const std::size_t cells = cells_.empty() ? kMinCells : 2 * cells_.size();
    std::vector<Cell> old(cells, Cell{});
    old.swap(cells_);
    mask_ = cells - 1;
    shift_ = 64U - static_cast<unsigned>(std::countr_zero(cells));
    for (const Cell& c : old)
        if (c.slot != kNone) place(c);
}

bool SlotIndex::audit() const {
    bool ok = JAWS_AUDIT_CHECK(
        cells_.empty() ||
            (std::has_single_bit(cells_.size()) && mask_ == cells_.size() - 1 &&
             shift_ == 64U - static_cast<unsigned>(std::countr_zero(cells_.size()))),
        "SlotIndex: table size or hash shift inconsistent");
    ok &= JAWS_AUDIT_CHECK(4 * size_ <= 3 * cells_.size(), "SlotIndex: load factor above 3/4");
    std::size_t occupied = 0;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        if (cells_[i].slot == kNone) continue;
        ++occupied;
        // The run from the key's home cell to this cell has no hole, and the
        // key appears nowhere before this cell in that run.
        bool reachable = true;
        for (std::size_t j = home(cells_[i].key); j != i; j = (j + 1) & mask_)
            reachable = reachable && cells_[j].slot != kNone && cells_[j].key != cells_[i].key;
        ok &= JAWS_AUDIT_CHECK(reachable, "SlotIndex: probe run broken or key stored twice");
    }
    ok &= JAWS_AUDIT_CHECK(occupied == size_,
                           "SlotIndex: entry count out of sync with the table");
    return ok;
}

}  // namespace jaws::util
