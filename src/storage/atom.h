// Atom identity.
//
// The atom — a 64^3-voxel block of one time step — is the fundamental unit of
// I/O and of scheduling in the Turbulence database (paper Sec. III-A). Atoms
// are identified by (time step, Morton code of the atom's spatial position);
// that pair is also the clustered index key, so atoms that are adjacent along
// the Morton curve within a time step are adjacent on disk.
#pragma once

#include <cstdint>

#include "util/typed_id.h"

namespace jaws::storage {

/// Strong clustered-index key type (see util/typed_id.h).
using AtomKey = util::AtomKey;

/// Identifies one atom in the dataset.
struct AtomId {
    std::uint32_t timestep = 0;  ///< Time step index in [0, GridSpec::timesteps).
    std::uint64_t morton = 0;    ///< Morton code of the atom's spatial coordinate.

    friend bool operator==(const AtomId&, const AtomId&) = default;
    friend auto operator<=>(const AtomId&, const AtomId&) = default;

    /// Composite 64-bit clustered-index key: time step in the high bits so a
    /// key-ordered scan walks each time step along the Morton curve, matching
    /// the production layout (B+ tree keyed on Morton index + time step).
    AtomKey key() const noexcept {
        return AtomKey{(static_cast<std::uint64_t>(timestep) << 40) |
                       (morton & 0xFFFFFFFFFFULL)};
    }

    /// Inverse of `key()`.
    static AtomId from_key(AtomKey k) noexcept {
        return AtomId{static_cast<std::uint32_t>(k.value() >> 40),
                      k.value() & 0xFFFFFFFFFFULL};
    }
};

}  // namespace jaws::storage
