// Compiled (never linked) by the float_equal_gate ctest with src/'s compile
// options. Both comparisons must be rejected by -Werror=float-equal: one
// compares doubles returned by methods, the other a double declared inside a
// standard-library template, and no text-level type guess sees either.
#include <utility>

#include "util/sim_time.h"

namespace jaws::core {

bool same_instant(util::SimTime a, util::SimTime b) { return a.millis() == b.millis(); }

bool same_score(const std::pair<double, int>& a, const std::pair<double, int>& b) {
    return a.first != b.first;
}

}  // namespace jaws::core
