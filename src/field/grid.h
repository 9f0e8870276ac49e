// Grid and atom geometry.
//
// The Turbulence database stores each time step as a cube of N^3 voxels,
// partitioned into atoms of `atom_side`^3 voxels (64^3 in production, with 4
// voxels of ghost replication per face so that interpolation kernels near an
// atom boundary can be evaluated from a single atom — paper Sec. III-A). This
// module owns all coordinate conversions between continuous torus positions,
// voxel indices, atom coordinates and Morton codes, plus the voxel payload
// type materialised from the synthetic field.
#pragma once

#include <cstdint>
#include <vector>

#include "field/synthetic_field.h"
#include "util/morton.h"

namespace jaws::field {

/// Static description of the gridded dataset.
struct GridSpec {
    std::uint32_t voxels_per_side = 1024;  ///< N: voxels per axis per time step.
    std::uint32_t atom_side = 64;          ///< Voxels per axis per atom.
    std::uint32_t ghost = 4;               ///< Ghost (replicated) voxels per face.
    std::uint32_t timesteps = 31;          ///< Stored time steps.
    static constexpr double dt = 0.002;    ///< Simulation seconds between steps.

    /// Atoms per axis (N / atom_side; N must be a multiple of atom_side).
    std::uint32_t atoms_per_side() const noexcept { return voxels_per_side / atom_side; }
    /// Atoms in one time step.
    std::uint64_t atoms_per_step() const noexcept {
        const std::uint64_t a = atoms_per_side();
        return a * a * a;
    }
    /// Atoms in the whole dataset.
    std::uint64_t total_atoms() const noexcept { return atoms_per_step() * timesteps; }
    /// Simulation time of step `t`.
    double sim_time(std::uint32_t t) const noexcept { return dt * t; }
    /// Nominal atom payload size in bytes (with ghost), 4 floats per voxel.
    std::uint64_t atom_bytes() const noexcept {
        const std::uint64_t side = atom_side + 2ULL * ghost;
        return side * side * side * 4 * sizeof(float);
    }

    /// Voxel containing the continuous torus position `p` in [0, 1)^3.
    util::Coord3 voxel_of(const Vec3& p) const noexcept;
    /// Continuous position of the centre of voxel `v`.
    Vec3 position_of(const util::Coord3& v) const noexcept;
    /// Atom coordinate (in [0, atoms_per_side)^3) containing voxel `v`.
    util::Coord3 atom_of_voxel(const util::Coord3& v) const noexcept;
    /// Morton code of the atom containing position `p`.
    std::uint64_t atom_morton_of(const Vec3& p) const noexcept;
};

/// Materialised voxel payload of one atom: velocity + pressure for
/// (atom_side + 2*ghost)^3 voxels, stored channel-interleaved — 4 floats
/// (u, v, w, p) per voxel, x fastest. The interleaving is deliberate: the
/// batched interpolation kernel multiplies all four channels of a voxel by
/// one shared Lagrange weight, and keeping the channel group contiguous
/// lets the compiler's SLP vectoriser pack those four multiply-adds into
/// vector lanes (measured ~1.4x over split per-channel planes on this
/// kernel; see field/batch_interpolator.h and DESIGN.md).
class VoxelBlock {
  public:
    /// Floats per voxel in `data()` (u, v, w, p).
    static constexpr std::size_t kChannels = 4;

    /// Sample the synthetic `field` over atom `atom` (atom coordinates) of
    /// time step `t` under `grid`, including ghost voxels (periodic wrap).
    VoxelBlock(const GridSpec& grid, const SyntheticField& field, const util::Coord3& atom,
               std::uint32_t t);

    /// Extent per axis including ghosts.
    std::uint32_t extent() const noexcept { return extent_; }

    /// Flow sample at local coordinates (ghost included: 0 <= i < extent()).
    FlowSample at(std::uint32_t ix, std::uint32_t iy, std::uint32_t iz) const noexcept;

    /// Raw interleaved payload: voxel ordinal v (see voxel_index) holds its
    /// channels at data()[kChannels * v + 0..3].
    const float* data() const noexcept { return data_.data(); }

    /// Flat voxel ordinal of local coordinates (x fastest).
    std::size_t voxel_index(std::uint32_t ix, std::uint32_t iy,
                            std::uint32_t iz) const noexcept {
        return (static_cast<std::size_t>(iz) * extent_ + iy) * extent_ + ix;
    }

    /// Bytes of payload held.
    std::uint64_t bytes() const noexcept { return data_.size() * sizeof(float); }

  private:
    std::uint32_t extent_;
    std::vector<float> data_;  // kChannels floats per voxel, x fastest.
};

}  // namespace jaws::field
