// Externally managed atom cache.
//
// Mirrors the paper's experimental setup (Sec. VI): a fixed-capacity cache of
// whole atoms managed outside the database, with a pluggable replacement
// policy. Capacity is counted in atoms (the production 2 GB cache holds 256
// 8 MB atoms). The cache times every policy call through an injected tick
// source: by default a deterministic virtual counter (one tick per timed
// section), so cache accounting is bit-reproducible; benches that want
// Table I's real "Overhead/Qry" column inject util::wall_clock_ns via
// set_tick_source (the only sanctioned wall-clock path, see the wall-clock
// rule in scripts/jaws_analyzer.py).
//
// Residents live in a util::SlotMap keyed by the atom's clustered-index
// key; a new resident takes the slot of the victim it displaces, so a full
// cache never grows or shrinks the map.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cache/replacement_policy.h"
#include "field/grid.h"
#include "storage/atom.h"
#include "util/slot_index.h"

namespace jaws::cache {

/// Hit/miss/eviction accounting plus policy overhead.
struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /// Ticks spent inside the policy: wall nanoseconds when a wall-clock
    /// tick source is installed, else deterministic virtual ticks (one per
    /// policy call section).
    std::uint64_t policy_overhead_ns = 0;

    double hit_rate() const noexcept {
        const std::uint64_t total = hits + misses;
        return total ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
    }

    bool operator==(const CacheStats&) const = default;
};

/// Monotonic tick counter for overhead timing (see util::wall_clock_ns for
/// the wall-clock instance). nullptr selects the deterministic virtual
/// counter.
using TickSource = std::uint64_t (*)();

/// Fixed-capacity cache of atoms with pluggable replacement.
class BufferCache {
  public:
    /// `capacity_atoms` must be >= 1; the cache takes ownership of `policy`.
    BufferCache(std::size_t capacity_atoms, std::unique_ptr<ReplacementPolicy> policy);

    /// Install the tick source used to time policy calls (nullptr restores
    /// the deterministic virtual counter). Benches inject
    /// util::wall_clock_ns here; reproducible runs keep the default.
    void set_tick_source(TickSource ticks) noexcept { ticks_ = ticks; }

    /// Probe for `atom`. On a hit, notifies the policy and returns true.
    /// On a miss returns false (caller performs the I/O and calls insert).
    bool lookup(const storage::AtomId& atom);

    /// Make `atom` resident (with optional payload), evicting if full.
    /// Inserting an already-resident atom just refreshes its payload.
    /// Returns the evicted victim, if any, so callers can propagate the
    /// residency change (phi flip) to the scheduler.
    std::optional<storage::AtomId> insert(
        const storage::AtomId& atom,
        std::shared_ptr<const field::VoxelBlock> payload = nullptr);

    /// Whether `atom` is resident (no policy notification; no stats change).
    bool contains(const storage::AtomId& atom) const;

    /// Payload of a resident atom (null if absent or payload-less).
    std::shared_ptr<const field::VoxelBlock> payload(const storage::AtomId& atom) const;

    /// Forward a run boundary to the policy (SLRU promotion point).
    void run_boundary();

    /// Drop everything (between experiment repetitions).
    void clear();

    /// Number of resident atoms.
    std::size_t size() const noexcept { return residents_.size(); }
    /// Capacity in atoms.
    std::size_t capacity() const noexcept { return capacity_; }
    /// Accounting so far.
    const CacheStats& stats() const noexcept { return stats_; }
    /// Reset accounting (residency is kept).
    void reset_stats() noexcept { stats_ = CacheStats{}; }
    /// Name of the installed policy.
    std::string policy_name() const { return policy_->name(); }

    /// Exhaustive accounting self-check (automatic at transitions in audit
    /// builds; callable from tests in any build): capacity respected, atom
    /// conservation (every atom ever admitted was either evicted, cleared,
    /// or is still resident), stats coherence, the resident map's own audit,
    /// and the policy's own bookkeeping matched against
    /// the cache's resident set. Reports through util::contract_violation;
    /// returns true when clean.
    bool audit() const;

  private:
    using Slot = util::SlotIndex::Slot;

    /// Slot of `atom` in residents_, or SlotIndex::kNone.
    Slot slot_of(const storage::AtomId& atom) const noexcept {
        return residents_.find(atom.key().value());
    }
    /// Resident atom ids in sorted order (slot-order-independent snapshots
    /// for clear()'s policy notifications and audit()'s policy check).
    std::vector<storage::AtomId> sorted_residents() const;

    std::size_t capacity_;
    TickSource ticks_ = nullptr;  ///< nullptr = deterministic virtual ticks.
    std::unique_ptr<ReplacementPolicy> policy_;
    /// Atom key -> the resident's payload (null when payload-less).
    util::SlotMap<std::shared_ptr<const field::VoxelBlock>> residents_;
    CacheStats stats_;
    // Conservation ledger for audit(): new residencies ever admitted, atoms
    // evicted, atoms dropped by clear(). Kept apart from stats_ (which
    // reset_stats() zeroes) so the balance holds at every instant.
    std::uint64_t admitted_ = 0;
    std::uint64_t evicted_ = 0;
    std::uint64_t cleared_ = 0;
    std::uint64_t audit_tick_ = 0;  ///< Rate limiter for automatic audits.
};

}  // namespace jaws::cache
