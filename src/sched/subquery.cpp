#include "sched/subquery.h"

#include <cstddef>
#include <optional>

#include "util/contracts.h"
#include "util/morton.h"

namespace jaws::sched {

namespace {
/// Index of the first of the `n` >= 1 requests at `first` whose Morton code
/// is not below `code` (std::lower_bound's answer). Branch-free: the trip
/// count depends on `n` alone and each step is a conditional move, so a
/// search costs no mispredicted branches however the codes fall.
std::size_t lower_bound_morton(const workload::AtomRequest* first, std::size_t n,
                               std::uint64_t code) noexcept {
    const workload::AtomRequest* base = first;
    while (n > 1) {
        const std::size_t half = n / 2;
        base = base[half].atom.morton < code ? base + half : base;
        n -= half;
    }
    return static_cast<std::size_t>(base - first) + (base->atom.morton < code ? 1 : 0);
}
}  // namespace

void preprocess(const workload::Query& query, util::SimTime now, std::vector<SubQuery>& out) {
    const std::size_t base = out.size();
    for (const auto& req : query.footprint) {
        JAWS_INVARIANT(req.positions <= workload::kMaxAtomPositions,
                       "preprocess: footprint entry holds more positions than a sub-query counts");
        SubQuery& sub = out.emplace_back();
        sub.query = query.id;
        sub.atom = req.atom;
        sub.positions = static_cast<std::uint32_t>(req.positions);
        sub.enqueue_time = now;
    }

    // Kernel supports: for each footprint atom, the face-neighbour atoms that
    // are themselves part of the footprint (the position cloud is contiguous,
    // so boundary positions sample from exactly these). Footprints are
    // Morton-sorted, so membership is a binary search.
    const workload::AtomRequest* first = query.footprint.data();
    for (std::size_t i = 1; i < query.footprint.size(); ++i) {
        SubQuery& sub = out[base + i];
        // Each shared face is owned by the higher-coordinate atom: its kernel
        // spills into the lower (Morton-earlier) neighbour, so every
        // adjacency is charged exactly once across the footprint, and a
        // Morton-ordered evaluation pass has always *just read* the atom the
        // spill needs — the locality the two-level framework exploits.
        // Morton-earlier neighbours can only sit before this atom, in the
        // first i requests (so the first request has no supports).
        for (unsigned axis = 0; axis < 3; ++axis) {  // x-1, y-1, z-1
            const std::optional<std::uint64_t> below =
                util::morton_lower_neighbor(sub.atom.morton, axis);
            if (!below) continue;
            const std::size_t at = lower_bound_morton(first, i, *below);
            if (at < i && first[at].atom.morton == *below) sub.supports.add(axis);
        }
    }
}

}  // namespace jaws::sched
