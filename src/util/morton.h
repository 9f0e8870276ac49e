// 3-D Morton (Z-order) encoding.
//
// The Turbulence database partitions each 1024^3 time step into 64^3-voxel
// atoms and lays the atoms out on disk in Morton order: interleaving the bits
// of the (x, y, z) atom coordinates yields a space-filling curve that keeps
// spatially adjacent atoms close on disk (paper Sec. III-A). This header
// provides branch-free encode/decode for up to 21 bits per axis (63-bit
// codes), plus helpers for iterating the Morton codes covering an axis-aligned
// box, which the query pre-processor uses to sort sub-queries.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace jaws::util {

/// Packed 3-D integer coordinate (atom or voxel coordinates).
struct Coord3 {
    std::uint32_t x = 0;
    std::uint32_t y = 0;
    std::uint32_t z = 0;

    friend bool operator==(const Coord3&, const Coord3&) = default;
};

/// Maximum number of bits per axis representable in a 64-bit Morton code.
inline constexpr unsigned kMortonBitsPerAxis = 21;

/// Spread the low 21 bits of `v` so that each input bit lands at 3x its
/// original position (bit i -> bit 3i). Building block of `morton_encode`.
std::uint64_t morton_spread(std::uint32_t v) noexcept;

/// Inverse of `morton_spread`: gather every third bit back into a dense word.
std::uint32_t morton_compact(std::uint64_t v) noexcept;

/// Interleave (x, y, z) into a Morton code. Bit layout (LSB first) is
/// x0 y0 z0 x1 y1 z1 ... — x occupies the least-significant lane, matching the
/// convention that the x axis varies fastest along the curve.
std::uint64_t morton_encode(std::uint32_t x, std::uint32_t y, std::uint32_t z) noexcept;

/// Convenience overload of `morton_encode` for a packed coordinate.
std::uint64_t morton_encode(const Coord3& c) noexcept;

/// Recover the (x, y, z) coordinate from a Morton code.
Coord3 morton_decode(std::uint64_t code) noexcept;

/// All Morton codes of the atoms inside the closed box [lo, hi] (inclusive on
/// both ends, per axis), returned in ascending Morton order. Used to enumerate
/// the atoms touched by a spatial range query.
std::vector<std::uint64_t> morton_box_cover(const Coord3& lo, const Coord3& hi);

/// Morton code of the face neighbour one step down `axis` (0 = x, 1 = y,
/// 2 = z), or nullopt when the coordinate on that axis is 0. Equal to
/// morton_encode of the decoded coordinate less one on that axis, without
/// decoding: the axis lane is decremented in place, and the borrow that runs
/// through the other lanes' bits is masked off.
constexpr std::optional<std::uint64_t> morton_lower_neighbor(std::uint64_t code,
                                                             unsigned axis) noexcept {
    const std::uint64_t lane = 0x1249249249249249ULL << axis;
    if ((code & lane) == 0) return std::nullopt;
    return (((code & lane) - 1) & lane) | (code & ~lane);
}

}  // namespace jaws::util
