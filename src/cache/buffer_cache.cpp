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
    const auto it = resident_.find(atom);
    if (it == resident_.end()) {
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
    const auto it = resident_.find(atom);
    if (it != resident_.end()) {
        if (payload != nullptr) it->second = std::move(payload);
        return std::nullopt;
    }
    std::optional<storage::AtomId> evicted;
    decltype(resident_)::node_type node;
    if (resident_.size() >= capacity_) {
        OverheadTimer timer(stats_.policy_overhead_ns, ticks_);
        const storage::AtomId victim = policy_->pick_victim();
        policy_->on_evict(victim);
        node = resident_.extract(victim);
        assert(!node.empty());
        ++stats_.evictions;
        ++evicted_;
        evicted = victim;
    }
    if (node.empty()) {
        resident_.emplace(atom, std::move(payload));
    } else {
        // The new resident takes over the victim's map node.
        node.key() = atom;
        node.mapped() = std::move(payload);
        resident_.insert(std::move(node));
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
    return resident_.contains(atom);
}

std::shared_ptr<const field::VoxelBlock> BufferCache::payload(
    const storage::AtomId& atom) const {
    const auto it = resident_.find(atom);
    return it == resident_.end() ? nullptr : it->second;
}

void BufferCache::run_boundary() {
    OverheadTimer timer(stats_.policy_overhead_ns, ticks_);
    policy_->on_run_boundary();
}

std::vector<storage::AtomId> BufferCache::sorted_residents() const {
    std::vector<storage::AtomId> atoms;
    atoms.reserve(resident_.size());
    // jaws-lint: allow(unordered-iteration) -- order normalised by the sort below.
    for (const auto& [atom, payload] : resident_) atoms.push_back(atom);
    std::sort(atoms.begin(), atoms.end());
    return atoms;
}

void BufferCache::clear() {
    // Notify the policy in key order, not hash order: eviction callbacks
    // mutate policy state (e.g. LRU-K's retained-history FIFO), so the
    // notification order must not depend on the hash table's layout.
    for (const storage::AtomId& atom : sorted_residents()) policy_->on_evict(atom);
    cleared_ += resident_.size();
    resident_.clear();
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
    check(resident_.size() <= capacity_, "size() <= capacity()",
          "BufferCache: resident set exceeds capacity");
    // Atom conservation: everything ever admitted is evicted, cleared, or
    // still resident — nothing is lost and nothing double-counted.
    check(admitted_ == evicted_ + cleared_ + resident_.size(),
          "admitted == evicted + cleared + resident",
          "BufferCache: atom conservation violated");
    // An eviction happens only on the miss path, after a failed lookup or a
    // direct insert; admissions can never outnumber misses plus direct
    // inserts, and evictions can never outnumber admissions.
    check(evicted_ <= admitted_, "evicted <= admitted",
          "BufferCache: more evictions than admissions");
    const std::vector<storage::AtomId> atoms = sorted_residents();
    check(policy_->audit(atoms), "policy_->audit(resident)",
          "BufferCache: replacement-policy state diverged from residency");
    return ok;
}

}  // namespace jaws::cache
