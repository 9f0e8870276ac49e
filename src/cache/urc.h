// Utility Ranked Caching (paper Sec. V-B).
//
// URC incorporates full knowledge of pending workload requests: it evicts the
// atom likely to be used farthest in the future according to the scheduler's
// own ranking. Because JAWS's two-level framework evaluates a batch of k
// atoms from one time step together, atoms that will be used together must be
// cached together — so URC evicts (1) from the resident time step with the
// lowest *mean* workload throughput, and (2) within that time step, the atom
// with the lowest individual workload throughput U_t; the least recently
// touched atom breaks the remaining ties. The ranking is read through the
// UtilityOracle at eviction time, over one slot map of residents' last-touch
// ticks; the measured cost of that read is exactly the "Overhead/Qry" Table I
// reports for URC.
#pragma once

#include <cstdint>

#include "cache/replacement_policy.h"
#include "util/slot_index.h"

namespace jaws::cache {

/// Scheduler-coordinated eviction. Requires a live oracle outliving the policy.
class UrcPolicy final : public ReplacementPolicy {
  public:
    explicit UrcPolicy(const UtilityOracle& oracle) : oracle_(oracle) {}

    void on_insert(const storage::AtomId& atom) override;
    void on_access(const storage::AtomId& atom) override;
    storage::AtomId pick_victim() override;
    void on_evict(const storage::AtomId& atom) override;
    std::string name() const override { return "URC"; }
    bool audit(const std::vector<storage::AtomId>& resident) const override;

  private:
    const UtilityOracle& oracle_;
    /// Resident atom key -> its last-touch tick (unique: every tick is).
    util::SlotMap<std::uint64_t> last_touch_;
    std::uint64_t tick_ = 0;
};

}  // namespace jaws::cache
