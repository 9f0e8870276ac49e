#include "field/grid.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace jaws::field {

util::Coord3 GridSpec::voxel_of(const Vec3& p) const noexcept {
    const auto clampv = [&](double v) {
        const auto n = static_cast<std::int64_t>(wrap01(v) * voxels_per_side);
        return static_cast<std::uint32_t>(
            std::clamp<std::int64_t>(n, 0, static_cast<std::int64_t>(voxels_per_side) - 1));
    };
    return util::Coord3{clampv(p.x), clampv(p.y), clampv(p.z)};
}

Vec3 GridSpec::position_of(const util::Coord3& v) const noexcept {
    const double inv = 1.0 / voxels_per_side;
    return Vec3{(v.x + 0.5) * inv, (v.y + 0.5) * inv, (v.z + 0.5) * inv};
}

util::Coord3 GridSpec::atom_of_voxel(const util::Coord3& v) const noexcept {
    return util::Coord3{v.x / atom_side, v.y / atom_side, v.z / atom_side};
}

std::uint64_t GridSpec::atom_morton_of(const Vec3& p) const noexcept {
    return util::morton_encode(atom_of_voxel(voxel_of(p)));
}

VoxelBlock::VoxelBlock(const GridSpec& grid, const SyntheticField& field,
                       const util::Coord3& atom, std::uint32_t t)
    : extent_(grid.atom_side + 2 * grid.ghost) {
    assert(atom.x < grid.atoms_per_side() && atom.y < grid.atoms_per_side() &&
           atom.z < grid.atoms_per_side());
    data_.resize(static_cast<std::size_t>(extent_) * extent_ * extent_ * kChannels);
    const double sim_t = grid.sim_time(t);
    const double inv = 1.0 / grid.voxels_per_side;
    const auto n = static_cast<std::int64_t>(grid.voxels_per_side);
    std::size_t w = 0;
    for (std::uint32_t iz = 0; iz < extent_; ++iz) {
        for (std::uint32_t iy = 0; iy < extent_; ++iy) {
            for (std::uint32_t ix = 0; ix < extent_; ++ix) {
                // Global voxel index with periodic wrap (ghosts may be
                // outside the atom and outside the grid).
                const auto gv = [&](std::uint32_t atom_c, std::uint32_t local) {
                    const std::int64_t g = static_cast<std::int64_t>(atom_c) *
                                               grid.atom_side +
                                           static_cast<std::int64_t>(local) -
                                           grid.ghost;
                    return ((g % n) + n) % n;
                };
                const Vec3 p{(static_cast<double>(gv(atom.x, ix)) + 0.5) * inv,
                             (static_cast<double>(gv(atom.y, iy)) + 0.5) * inv,
                             (static_cast<double>(gv(atom.z, iz)) + 0.5) * inv};
                const FlowSample s = field.sample(p, sim_t);
                data_[w + 0] = static_cast<float>(s.velocity.x);
                data_[w + 1] = static_cast<float>(s.velocity.y);
                data_[w + 2] = static_cast<float>(s.velocity.z);
                data_[w + 3] = static_cast<float>(s.pressure);
                w += kChannels;
            }
        }
    }
}

FlowSample VoxelBlock::at(std::uint32_t ix, std::uint32_t iy, std::uint32_t iz) const noexcept {
    const std::size_t i = kChannels * voxel_index(ix, iy, iz);
    FlowSample s;
    s.velocity = Vec3{data_[i + 0], data_[i + 1], data_[i + 2]};
    s.pressure = data_[i + 3];
    return s;
}

}  // namespace jaws::field
