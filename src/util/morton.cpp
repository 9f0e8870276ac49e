#include "util/morton.h"

#include <algorithm>
#include <cassert>

namespace jaws::util {

std::uint64_t morton_spread(std::uint32_t v) noexcept {
    // Classic parallel-prefix bit spreading for 21-bit inputs.
    std::uint64_t x = v & 0x1fffff;  // keep 21 bits
    x = (x | (x << 32)) & 0x1f00000000ffffULL;
    x = (x | (x << 16)) & 0x1f0000ff0000ffULL;
    x = (x | (x << 8)) & 0x100f00f00f00f00fULL;
    x = (x | (x << 4)) & 0x10c30c30c30c30c3ULL;
    x = (x | (x << 2)) & 0x1249249249249249ULL;
    return x;
}

std::uint32_t morton_compact(std::uint64_t v) noexcept {
    std::uint64_t x = v & 0x1249249249249249ULL;
    x = (x ^ (x >> 2)) & 0x10c30c30c30c30c3ULL;
    x = (x ^ (x >> 4)) & 0x100f00f00f00f00fULL;
    x = (x ^ (x >> 8)) & 0x1f0000ff0000ffULL;
    x = (x ^ (x >> 16)) & 0x1f00000000ffffULL;
    x = (x ^ (x >> 32)) & 0x1fffffULL;
    return static_cast<std::uint32_t>(x);
}

std::uint64_t morton_encode(std::uint32_t x, std::uint32_t y, std::uint32_t z) noexcept {
    return morton_spread(x) | (morton_spread(y) << 1) | (morton_spread(z) << 2);
}

std::uint64_t morton_encode(const Coord3& c) noexcept { return morton_encode(c.x, c.y, c.z); }

Coord3 morton_decode(std::uint64_t code) noexcept {
    return Coord3{morton_compact(code), morton_compact(code >> 1), morton_compact(code >> 2)};
}

std::vector<std::uint64_t> morton_box_cover(const Coord3& lo, const Coord3& hi) {
    std::vector<std::uint64_t> out;
    if (lo.x > hi.x || lo.y > hi.y || lo.z > hi.z) return out;
    out.reserve(static_cast<std::size_t>(hi.x - lo.x + 1) * (hi.y - lo.y + 1) *
                (hi.z - lo.z + 1));
    for (std::uint32_t z = lo.z; z <= hi.z; ++z)
        for (std::uint32_t y = lo.y; y <= hi.y; ++y)
            for (std::uint32_t x = lo.x; x <= hi.x; ++x)
                out.push_back(morton_encode(x, y, z));
    std::sort(out.begin(), out.end());
    return out;
}

}  // namespace jaws::util
