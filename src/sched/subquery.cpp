#include "sched/subquery.h"

#include <algorithm>
#include <cstddef>
#include <optional>

#include "util/morton.h"

namespace jaws::sched {

void preprocess(const workload::Query& query, util::SimTime now, std::vector<SubQuery>& out) {
    const std::size_t base = out.size();
    for (const auto& req : query.footprint) {
        SubQuery& sub = out.emplace_back();
        sub.query = query.id;
        sub.atom = req.atom;
        sub.positions = req.positions;
        sub.enqueue_time = now;
    }

    // Kernel supports: for each footprint atom, the face-neighbour atoms that
    // are themselves part of the footprint (the position cloud is contiguous,
    // so boundary positions sample from exactly these). Footprints are
    // Morton-sorted, so membership is a binary search.
    if (query.footprint.size() < 2) return;
    const auto by_morton = [](const workload::AtomRequest& r, std::uint64_t c) {
        return r.atom.morton < c;
    };
    const auto first = query.footprint.begin();
    for (std::size_t i = 0; i < query.footprint.size(); ++i) {
        SubQuery& sub = out[base + i];
        // Each shared face is owned by the higher-coordinate atom: its kernel
        // spills into the lower (Morton-earlier) neighbour, so every
        // adjacency is charged exactly once across the footprint, and a
        // Morton-ordered evaluation pass has always *just read* the atom the
        // spill needs — the locality the two-level framework exploits.
        // Morton-earlier neighbours can only sit before this atom.
        const auto last = first + static_cast<std::ptrdiff_t>(i);
        for (unsigned axis = 0; axis < 3; ++axis) {  // x-1, y-1, z-1
            const std::optional<std::uint64_t> below =
                util::morton_lower_neighbor(sub.atom.morton, axis);
            if (!below) continue;
            const auto it = std::lower_bound(first, last, *below, by_morton);
            if (it != last && it->atom.morton == *below) sub.supports.push_back(*below);
        }
    }
}

}  // namespace jaws::sched
