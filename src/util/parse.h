// Checked parsing of decimal counts from command lines.
//
// The benches and examples take job counts, node counts, seeds and sizes as
// arguments. A bare strtoull turns "abc" into 0 and "12x" into 12 and
// saturates on overflow, so a typo runs an empty or wrong experiment
// instead of stopping; every count goes through parse_count instead.
#pragma once

#include <cstdint>
#include <optional>

namespace jaws::util {

/// `text` as a decimal count within [lo, hi]: digits only (no sign, space or
/// prefix) and fully consumed. Anything else — empty, signed, trailing text,
/// beyond 64 bits or outside the range — is nullopt.
std::optional<std::uint64_t> parse_count(const char* text, std::uint64_t lo,
                                         std::uint64_t hi);

}  // namespace jaws::util
