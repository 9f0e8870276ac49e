#include "workload/query.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

namespace jaws::workload {

AtomGrouping group_by_atom(const field::GridSpec& grid, std::uint32_t timestep,
                           std::span<const field::Vec3> positions) {
    std::vector<std::uint64_t> atom(positions.size());
    for (std::size_t i = 0; i < positions.size(); ++i) {
        if (!positions[i].finite())
            throw std::invalid_argument("group_by_atom: position " + std::to_string(i) +
                                        " has a coordinate that is not finite");
        atom[i] = grid.atom_morton_of(positions[i]);
    }
    AtomGrouping out;
    out.order.resize(positions.size());
    std::iota(out.order.begin(), out.order.end(), std::size_t{0});
    // Stable, so each atom keeps its points in the caller's order.
    std::ranges::stable_sort(out.order, {}, [&](std::size_t i) { return atom[i]; });
    out.positions.reserve(positions.size());
    for (const std::size_t i : out.order) {
        if (out.footprint.empty() || out.footprint.back().atom.morton != atom[i])
            out.footprint.push_back(AtomRequest{storage::AtomId{timestep, atom[i]}, 0});
        ++out.footprint.back().positions;
        out.positions.push_back(positions[i]);
    }
    return out;
}

}  // namespace jaws::workload
