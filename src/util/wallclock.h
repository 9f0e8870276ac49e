// The one sanctioned wall-clock read.
//
// Simulation, scheduling and accounting code must be bit-reproducible, so
// scripts/jaws_analyzer.py bans wall-clock reads inside
// src/{core,sched,storage,cache,field,workload}. Real elapsed-time
// measurement is still needed by the benches (Table I's overhead column
// measures actual nanoseconds spent inside cache policies); this utility is
// the explicitly allowlisted source they inject (e.g. via
// BufferCache::set_tick_source).
#pragma once

#include <cstdint>

namespace jaws::util {

/// Monotonic wall-clock nanoseconds (arbitrary epoch). Not reproducible
/// across runs by construction — inject only into measurement sinks that
/// never feed back into scheduling decisions.
std::uint64_t wall_clock_ns();

}  // namespace jaws::util
