#include "util/parse.h"

#include <charconv>
#include <cstring>
#include <system_error>

namespace jaws::util {

std::optional<std::uint64_t> parse_count(const char* text, std::uint64_t lo,
                                         std::uint64_t hi) {
    const char* end = text + std::strlen(text);
    std::uint64_t value = 0;
    const auto [stop, error] = std::from_chars(text, end, value);
    if (error != std::errc() || stop != end || value < lo || value > hi) return std::nullopt;
    return value;
}

}  // namespace jaws::util
