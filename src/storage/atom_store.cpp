#include "storage/atom_store.h"

#include <algorithm>
#include <stdexcept>

#include "util/morton.h"

namespace jaws::storage {

namespace {
/// Morton codes of one time step's atoms in ascending order. Each step's
/// atoms sit contiguously on disk in this order, mirroring the production
/// layout that makes Morton-ordered batches near-sequential.
std::vector<std::uint64_t> step_cover(const field::GridSpec& grid) {
    const std::uint32_t last = grid.atoms_per_side() - 1;
    return util::morton_box_cover(util::Coord3{0, 0, 0}, util::Coord3{last, last, last});
}
}  // namespace

AtomStore::AtomStore(const AtomStoreSpec& spec)
    : spec_(spec),
      field_(spec.field),
      cover_(step_cover(spec.grid)),
      // Scale seek strokes to the actual layout size so cross-time-step
      // distances cost what they should.
      disk_(spec.disk,
            std::max<std::uint64_t>(1, spec.grid.total_atoms() * spec.grid.atom_bytes()),
            spec.io_channels),
      faults_(spec.faults) {}

std::optional<std::uint64_t> AtomStore::offset_of(const AtomId& id) const noexcept {
    if (id.timestep >= spec_.grid.timesteps) return std::nullopt;
    const auto it = std::lower_bound(cover_.begin(), cover_.end(), id.morton);
    if (it == cover_.end() || *it != id.morton) return std::nullopt;
    const auto rank = static_cast<std::uint64_t>(it - cover_.begin());
    return (std::uint64_t{id.timestep} * cover_.size() + rank) * spec_.grid.atom_bytes();
}

bool AtomStore::contains(const AtomId& id) const { return offset_of(id).has_value(); }

ReadResult AtomStore::read(const AtomId& id, util::ChannelIndex channel) {
    const std::optional<std::uint64_t> offset = offset_of(id);
    if (!offset) throw std::out_of_range("AtomStore::read: atom outside dataset");
    ReadResult result;
    result.io_cost = disk_.read(*offset, spec_.grid.atom_bytes(), channel);
    if (faults_.enabled()) {
        const FaultOutcome fault = faults_.on_read(id);
        // Injected stalls (stuck commands; spikes on successful reads) are
        // paid whether or not the request then fails: the channel was held.
        if (fault.extra_latency > util::SimTime::zero()) {
            disk_.charge_delay(fault.extra_latency);
            result.io_cost += fault.extra_latency;
            result.fault_delay = fault.extra_latency;
        }
        if (fault.failed) {
            // The disk still moved its head and spent the service time; the
            // request just returned no usable data.
            result.failed = true;
            return result;
        }
    }
    if (spec_.materialize_data) {
        result.data = std::make_shared<field::VoxelBlock>(
            spec_.grid, field_, util::morton_decode(id.morton), id.timestep);
    }
    return result;
}

}  // namespace jaws::storage
