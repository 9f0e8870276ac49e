#include "storage/fault_injector.h"

#include <cmath>

#include "util/rng.h"

namespace jaws::storage {

double FaultInjector::hash_uniform(const AtomId& id, std::uint64_t attempt,
                                   std::uint64_t stream) const noexcept {
    // splitmix64 over the concatenated identity: order-independent across
    // atoms, distinct per attempt and per decision stream.
    std::uint64_t state = spec_.seed;
    state ^= util::splitmix64(state) ^ id.key().value();
    state ^= util::splitmix64(state) ^ attempt;
    state ^= util::splitmix64(state) ^ stream;
    return static_cast<double>(util::splitmix64(state) >> 11) * 0x1.0p-53;
}

FaultOutcome FaultInjector::on_read(const AtomId& id) {
    FaultOutcome out;
    const std::uint64_t attempt = attempts_.get_or_insert(id.key().value())++;
    // Stuck command first: the stall is paid whether the command eventually
    // returns data or errors out — a hung RAID command under error recovery
    // holds the caller either way (the hang hedged reads exist to cut off).
    if (spec_.stuck_read_rate > 0.0 &&
        hash_uniform(id, attempt, 4) < spec_.stuck_read_rate) {
        const auto stall = util::SimTime::from_millis(spec_.stuck_read_ms);
        out.stuck = true;
        out.extra_latency += stall;
        ++stats_.stuck_reads;
        stats_.stuck_delay += stall;
    }
    if (spec_.transient_error_rate > 0.0 &&
        hash_uniform(id, attempt, 1) < spec_.transient_error_rate) {
        ++stats_.transient_faults;
        out.failed = true;
        return out;
    }
    if (spec_.latency_spike_rate > 0.0 &&
        hash_uniform(id, attempt, 2) < spec_.latency_spike_rate) {
        // Exponential spike magnitude via inverse CDF on a third hash stream.
        const double u = hash_uniform(id, attempt, 3);
        const auto spike = util::SimTime::from_millis(
            -spec_.latency_spike_mean_ms * std::log1p(-u));
        out.extra_latency += spike;
        ++stats_.latency_spikes;
        stats_.spike_delay += spike;
    }
    return out;
}

}  // namespace jaws::storage
