// Atom store: the simulated persistent layer of one database node.
//
// Lays atoms out on the simulated disk in clustered (time step, Morton) key
// order, computes each atom's extent from that layout, and serves reads by
// charging the disk model and — when data materialisation is enabled —
// synthesising the atom's voxel payload from the synthetic turbulence field.
// Scheduling-scale experiments run with materialisation off (the voxel values
// cannot change which atoms a query touches, only the examples need real
// data), which keeps a 127k-atom dataset addressable on a laptop.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "field/grid.h"
#include "field/synthetic_field.h"
#include "storage/atom.h"
#include "storage/disk_model.h"
#include "storage/fault_injector.h"

namespace jaws::storage {

/// Result of one atom read.
struct ReadResult {
    util::SimTime io_cost;  ///< Virtual time the disk spent on this read.
    /// The injected-delay portion of io_cost (latency spikes, stuck-read
    /// stalls). Cancellation accounting refunds this part to the disk's
    /// fault_delay ledger and the rest to service_time, keeping the two
    /// disjoint when a hedged read is cancelled mid-stall.
    util::SimTime fault_delay;
    std::shared_ptr<const field::VoxelBlock> data;  ///< Payload; null when not materialising.
    bool failed = false;     ///< Injected fault: no data was returned.
    bool permanent = false;  ///< Retrying can never succeed (bad Morton range).
};

/// Configuration of an AtomStore.
struct AtomStoreSpec {
    field::GridSpec grid;        ///< Dataset geometry.
    field::FieldSpec field;      ///< Synthetic-field parameters.
    DiskSpec disk;               ///< Disk model parameters.
    std::size_t io_channels = 1; ///< Concurrent disk service channels (RAID depth).
    bool materialize_data = false;  ///< Synthesize voxel payloads on read.
    FaultSpec faults;            ///< Deterministic fault injection (default: none).
};

/// One node's atom storage: the clustered atom layout over a simulated disk,
/// with lazy synthetic materialisation.
class AtomStore {
  public:
    explicit AtomStore(const AtomStoreSpec& spec);

    /// Read one atom: computes its extent in the layout, charges the disk's
    /// `channel`, and synthesises the payload if materialisation is enabled.
    /// Throws std::out_of_range for an atom outside the dataset. When fault
    /// injection is configured the attempt may come back `failed` (the disk
    /// time is still charged — the head moved) or carry straggler latency
    /// already folded into `io_cost`.
    ReadResult read(const AtomId& id, util::ChannelIndex channel = util::ChannelIndex{0});

    /// Whether `id` denotes an atom of this dataset.
    bool contains(const AtomId& id) const;

    /// Dataset geometry.
    const field::GridSpec& grid() const noexcept { return spec_.grid; }
    /// The synthetic flow field (examples use it as ground truth).
    const field::SyntheticField& field() const noexcept { return field_; }
    /// Disk statistics.
    const DiskStats& disk_stats() const noexcept { return disk_.stats(); }
    /// The disk model itself (the engine's abort accounting needs it).
    DiskModel& disk() noexcept { return disk_; }
    /// Injected-fault accounting (all zero when no faults are configured).
    const FaultStats& fault_stats() const noexcept { return faults_.stats(); }
    /// The fault source (tests and the engine's permanent-failure handling).
    const FaultInjector& faults() const noexcept { return faults_; }

  private:
    /// Byte offset of `id` in the clustered layout — time steps back to back,
    /// each step's atoms in ascending Morton order — or nullopt when `id`
    /// lies outside the dataset.
    std::optional<std::uint64_t> offset_of(const AtomId& id) const noexcept;

    AtomStoreSpec spec_;
    field::SyntheticField field_;
    std::vector<std::uint64_t> cover_;  ///< One step's Morton codes, ascending.
    DiskModel disk_;
    FaultInjector faults_;
};

}  // namespace jaws::storage
