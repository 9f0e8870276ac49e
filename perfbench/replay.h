// Layer replay for the traced run: the benchmark calls each layer's public
// functions on the workload's own generated inputs and times every call from
// outside the layer. No code inside the simulator is instrumented.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "report.h"
#include "workloads.h"

namespace perfbench {

/// Per-call costs of the event kernel, thread pool, pre-processor, workload
/// manager, buffer cache, atom store, interpolation kernel, digest fold and
/// cluster projection, plus the replay's own cache hit rate.
///
/// The workload-manager replay feeds sub-queries in submission order and
/// serves two-level batches whenever more than `backlog_bound` sub-queries are
/// pending (the engine's own median backlog), probing and filling an LRU-K
/// cache of the workload's capacity as it drains atoms. Draining everything
/// first would give a 0% hit rate and misrepresent the cache.
std::vector<Metric> replay_layers(const ReplayInput& in, std::size_t backlog_bound,
                                  std::size_t threads, std::uint64_t seed);

/// Wall seconds of workload::materialize_positions over a copy of the trace.
double time_materialize(const ReplayInput& in, std::uint64_t seed);

}  // namespace perfbench
