#include "cache/buffer_cache.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "util/contracts.h"

namespace jaws::cache {

namespace {
/// RAII timer adding elapsed ticks to a counter on destruction. With no
/// tick source installed it charges exactly one virtual tick per timed
/// section, keeping overhead accounting deterministic.
class OverheadTimer {
  public:
    OverheadTimer(std::uint64_t& sink, TickSource ticks) noexcept
        : sink_(sink), ticks_(ticks), start_(ticks != nullptr ? ticks() : 0) {}
    ~OverheadTimer() { sink_ += ticks_ != nullptr ? ticks_() - start_ : 1; }

    OverheadTimer(const OverheadTimer&) = delete;
    OverheadTimer& operator=(const OverheadTimer&) = delete;

  private:
    std::uint64_t& sink_;
    TickSource ticks_;
    std::uint64_t start_;
};
}  // namespace

BufferCache::BufferCache(std::size_t capacity_atoms,
                         std::unique_ptr<ReplacementPolicy> policy)
    : capacity_(capacity_atoms == 0 ? 1 : capacity_atoms), policy_(std::move(policy)) {
    assert(policy_ != nullptr);
}

bool BufferCache::lookup(const storage::AtomId& atom) {
    if (slot_of(atom) == util::SlotIndex::kNone) {
        ++stats_.misses;
        return false;
    }
    ++stats_.hits;
    OverheadTimer timer(stats_.policy_overhead_ns, ticks_);
    policy_->on_access(atom);
    return true;
}

std::optional<storage::AtomId> BufferCache::insert(
    const storage::AtomId& atom, std::shared_ptr<const field::VoxelBlock> payload) {
    if (const util::SlotIndex::Slot s = slot_of(atom); s != util::SlotIndex::kNone) {
        if (payload != nullptr) residents_[s].payload = std::move(payload);
        return std::nullopt;
    }
    std::optional<storage::AtomId> evicted;
    if (residents_.size() >= capacity_) {
        util::SlotIndex::Slot slot = util::SlotIndex::kNone;
        {
            OverheadTimer timer(stats_.policy_overhead_ns, ticks_);
            const storage::AtomId victim = policy_->pick_victim();
            policy_->on_evict(victim);
            slot = index_.erase(victim.key().value());
            assert(slot != util::SlotIndex::kNone);
            ++stats_.evictions;
            ++evicted_;
            evicted = victim;
        }
        // The new resident takes over the victim's slot.
        residents_[slot] = Resident{atom, std::move(payload)};
        index_.insert(atom.key().value(), slot);
    } else {
        index_.insert(atom.key().value(), static_cast<util::SlotIndex::Slot>(residents_.size()));
        residents_.push_back(Resident{atom, std::move(payload)});
    }
    ++admitted_;
    {
        OverheadTimer timer(stats_.policy_overhead_ns, ticks_);
        policy_->on_insert(atom);
    }
    JAWS_AUDIT((++audit_tick_ & 63) == 0 && audit());
    return evicted;
}

bool BufferCache::contains(const storage::AtomId& atom) const {
    return slot_of(atom) != util::SlotIndex::kNone;
}

std::shared_ptr<const field::VoxelBlock> BufferCache::payload(
    const storage::AtomId& atom) const {
    const util::SlotIndex::Slot s = slot_of(atom);
    return s == util::SlotIndex::kNone ? nullptr : residents_[s].payload;
}

void BufferCache::run_boundary() {
    OverheadTimer timer(stats_.policy_overhead_ns, ticks_);
    policy_->on_run_boundary();
}

std::vector<storage::AtomId> BufferCache::sorted_residents() const {
    std::vector<storage::AtomId> atoms;
    atoms.reserve(residents_.size());
    for (const Resident& r : residents_) atoms.push_back(r.atom);
    std::sort(atoms.begin(), atoms.end());
    return atoms;
}

void BufferCache::clear() {
    // Notify the policy in key order, not slot order: eviction callbacks
    // mutate policy state (e.g. LRU-K's retained-history FIFO), and slots
    // follow the eviction history.
    for (const storage::AtomId& atom : sorted_residents()) policy_->on_evict(atom);
    cleared_ += residents_.size();
    residents_.clear();
    index_.clear();
    JAWS_AUDIT(audit());
}

bool BufferCache::audit() const {
    bool ok = true;
    const auto check = [&](bool cond, const char* expr, const char* msg) {
        if (!cond) {
            ok = false;
            util::contract_violation(__FILE__, __LINE__, expr, msg);
        }
    };
    check(residents_.size() <= capacity_, "size() <= capacity()",
          "BufferCache: resident set exceeds capacity");
    // Atom conservation: everything ever admitted is evicted, cleared, or
    // still resident — nothing is lost and nothing double-counted.
    check(admitted_ == evicted_ + cleared_ + residents_.size(),
          "admitted == evicted + cleared + resident",
          "BufferCache: atom conservation violated");
    // An eviction happens only on the miss path, after a failed lookup or a
    // direct insert; admissions can never outnumber misses plus direct
    // inserts, and evictions can never outnumber admissions.
    check(evicted_ <= admitted_, "evicted <= admitted",
          "BufferCache: more evictions than admissions");
    // The index and the slot table agree: one entry per resident, at its
    // own slot.
    bool indexed = index_.audit() && index_.size() == residents_.size();
    for (std::size_t s = 0; s < residents_.size(); ++s)
        indexed = indexed && slot_of(residents_[s].atom) == s;
    check(indexed, "index maps each resident to its slot",
          "BufferCache: atom index out of sync with the resident slots");
    const std::vector<storage::AtomId> atoms = sorted_residents();
    check(policy_->audit(atoms), "policy_->audit(resident)",
          "BufferCache: replacement-policy state diverged from residency");
    return ok;
}

}  // namespace jaws::cache
