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
    if (const Slot s = slot_of(atom); s != util::SlotIndex::kNone) {
        if (payload != nullptr) residents_[s] = std::move(payload);
        return std::nullopt;
    }
    std::optional<storage::AtomId> evicted;
    if (residents_.size() >= capacity_) {
        OverheadTimer timer(stats_.policy_overhead_ns, ticks_);
        const storage::AtomId victim = policy_->pick_victim();
        policy_->on_evict(victim);
        [[maybe_unused]] const Slot freed = residents_.erase(victim.key().value());
        assert(freed != util::SlotIndex::kNone);
        ++stats_.evictions;
        ++evicted_;
        evicted = victim;
    }
    // The new resident takes the slot the victim freed, if there was one.
    residents_[residents_.insert(atom.key().value())] = std::move(payload);
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
    const Slot s = slot_of(atom);
    return s == util::SlotIndex::kNone ? nullptr : residents_[s];
}

void BufferCache::run_boundary() {
    OverheadTimer timer(stats_.policy_overhead_ns, ticks_);
    policy_->on_run_boundary();
}

std::vector<storage::AtomId> BufferCache::sorted_residents() const {
    std::vector<storage::AtomId> atoms;
    atoms.reserve(residents_.size());
    for (Slot s = 0; s < residents_.slots(); ++s)
        if (residents_.live(s))
            atoms.push_back(storage::AtomId::from_key(storage::AtomKey{residents_.key(s)}));
    std::sort(atoms.begin(), atoms.end());
    return atoms;
}

void BufferCache::clear() {
    // Notify the policy in key order, not slot order: eviction callbacks
    // mutate policy state (e.g. LRU-K's retained-history FIFO), and slots
    // follow the eviction history.
    for (const storage::AtomId& atom : sorted_residents()) policy_->on_evict(atom);
    cleared_ += residents_.size();
    // The map keeps its elements: drop the payloads so their blocks are freed.
    for (Slot s = 0; s < residents_.slots(); ++s) residents_[s].reset();
    residents_.clear();
    JAWS_AUDIT(audit());
}

bool BufferCache::audit() const {
    bool ok = residents_.audit();
    ok &= JAWS_AUDIT_CHECK(residents_.size() <= capacity_,
                           "BufferCache: resident set exceeds capacity");
    // Atom conservation: everything ever admitted is evicted, cleared, or
    // still resident — nothing is lost and nothing double-counted.
    ok &= JAWS_AUDIT_CHECK(admitted_ == evicted_ + cleared_ + residents_.size(),
                           "BufferCache: atom conservation violated");
    // An eviction happens only on the miss path, after a failed lookup or a
    // direct insert; admissions can never outnumber misses plus direct
    // inserts, and evictions can never outnumber admissions.
    ok &= JAWS_AUDIT_CHECK(evicted_ <= admitted_, "BufferCache: more evictions than admissions");
    ok &= JAWS_AUDIT_CHECK(policy_->audit(sorted_residents()),
                           "BufferCache: replacement-policy state diverged from residency");
    return ok;
}

}  // namespace jaws::cache
