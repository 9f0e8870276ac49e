// Fuzz harness for config decoding and validation.
//
// Builds an EngineConfig / ClusterConfig from fuzzer bytes — mixing
// plausible in-range values with raw bit-pattern doubles (NaN, infinities,
// denormals, huge magnitudes) and extreme integers — and calls validate().
// The contract under test: validate() either accepts the config or throws
// std::invalid_argument with a descriptive message. Any other outcome
// (a crash, UB caught by the sanitizers, a different exception type) is a
// bug: Engine construction trusts validate() as its only gate against
// nonsensical input.
#include <cstdint>
#include <stdexcept>

#include "core/cluster.h"
#include "core/config.h"
#include "fuzz_input.h"
#include "util/sim_time.h"

namespace {

using jaws::core::CachePolicy;
using jaws::core::ClusterConfig;
using jaws::core::EngineConfig;
using jaws::core::SchedulerKind;
using jaws::fuzz::FuzzInput;

/// Half the time a plausible value, half the time raw bits — validate()
/// must survive both and the fuzzer should explore both accept and reject
/// paths rather than drowning in one of them.
double fuzz_double(FuzzInput& in, double lo, double hi) {
    return in.boolean() ? in.unit_range(lo, hi) : in.raw_double();
}

void decode_engine(FuzzInput& in, EngineConfig& cfg) {
    // Grid geometry: small powers of two keep atoms_per_step() computable,
    // while the raw branch probes the divisibility / zero-size rejections.
    if (in.boolean()) {
        cfg.grid.voxels_per_side = 1u << in.below(11);
        cfg.grid.atom_side = 1u << in.below(8);
    } else {
        cfg.grid.voxels_per_side = in.u32();
        cfg.grid.atom_side = in.u32();
    }
    cfg.grid.ghost = static_cast<std::uint32_t>(in.below(256));
    cfg.grid.timesteps = static_cast<std::uint32_t>(in.below(64));

    cfg.field.seed = in.u64();
    cfg.field.modes = in.below(64);
    cfg.field.max_wavenumber = fuzz_double(in, 0.0, 32.0);

    cfg.disk.settle_ms = fuzz_double(in, 0.0, 10.0);
    cfg.disk.seek_full_stroke_ms = fuzz_double(in, 0.0, 50.0);
    cfg.disk.transfer_mb_per_s = fuzz_double(in, 0.0, 1000.0);
    cfg.disk.heavy_tail.rate = fuzz_double(in, 0.0, 1.0);
    cfg.disk.heavy_tail.lognormal_mu = fuzz_double(in, -4.0, 4.0);
    cfg.disk.heavy_tail.lognormal_sigma = fuzz_double(in, 0.0, 4.0);

    cfg.io_depth = in.below(64);
    cfg.compute_workers = in.below(64);
    cfg.eval.parallel = in.boolean();

    cfg.compute.t_m_us = fuzz_double(in, 0.0, 1000.0);
    cfg.estimates.t_b_ms = fuzz_double(in, 0.0, 1000.0);
    cfg.estimates.t_m_ms = fuzz_double(in, 0.0, 10.0);
    cfg.estimates.atoms_per_step = in.u64();

    cfg.cache.policy = static_cast<CachePolicy>(in.below(8));
    cfg.cache.capacity_atoms = in.below(1 << 20);
    cfg.cache.lru_k = static_cast<unsigned>(in.below(16));

    cfg.scheduler.kind = static_cast<SchedulerKind>(in.below(5));
    cfg.scheduler.liferaft_alpha = fuzz_double(in, 0.0, 1.0);
    cfg.scheduler.jaws.batch_size_k = in.below(256);
    cfg.scheduler.jaws.job_aware = in.boolean();
    cfg.scheduler.jaws.adaptive_alpha = in.boolean();
    cfg.scheduler.jaws.alpha.initial_alpha = fuzz_double(in, 0.0, 1.0);
    cfg.scheduler.jaws.alpha.smoothing = fuzz_double(in, 0.0, 1.0);
    cfg.scheduler.jaws.alpha.stall_epsilon = fuzz_double(in, 0.0, 1.0);
    cfg.scheduler.jaws.alpha.explore_step = fuzz_double(in, 0.0, 1.0);
    cfg.scheduler.jaws.qos.enabled = in.boolean();
    cfg.scheduler.jaws.qos.slack_factor = fuzz_double(in, 0.0, 64.0);
    cfg.scheduler.jaws.qos.margin_ms = fuzz_double(in, 0.0, 60000.0);

    cfg.run_length = in.below(1 << 12);
    cfg.materialize_data = in.boolean();
    cfg.prefetch.enabled = in.boolean();
    cfg.prefetch.max_atoms_per_batch = in.below(64);
    cfg.timeline_window_s = fuzz_double(in, 0.0, 100.0);

    cfg.faults.seed = in.u64();
    cfg.faults.transient_error_rate = fuzz_double(in, 0.0, 1.0);
    cfg.faults.latency_spike_rate = fuzz_double(in, 0.0, 1.0);
    cfg.faults.latency_spike_mean_ms = fuzz_double(in, 0.0, 10000.0);
    cfg.faults.stuck_read_rate = fuzz_double(in, 0.0, 1.0);
    cfg.faults.stuck_read_ms = fuzz_double(in, 0.0, 10000.0);
    const std::size_t bad_ranges = in.below(4);
    for (std::size_t i = 0; i < bad_ranges; ++i) {
        jaws::storage::BadRange range;
        range.morton_begin = in.u64();
        range.morton_end = in.u64();
        cfg.faults.bad_ranges.push_back(range);
    }

    cfg.retry.max_attempts = in.below(32);
    cfg.retry.total_retry_budget = in.below(1 << 16);

    cfg.hedge.enabled = in.boolean();
    cfg.hedge.trigger_ewma_multiplier = fuzz_double(in, 0.0, 16.0);
    cfg.hedge.max_outstanding = in.below(64);
    cfg.hedge.budget_per_query = in.below(64);

    cfg.deadline_budget_ms = fuzz_double(in, 0.0, 60000.0);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
    FuzzInput in(data, size);

    ClusterConfig cluster;
    decode_engine(in, cluster.node);
    cluster.nodes = in.below(17);  // includes the rejected 0-node case
    cluster.replication = in.below(21);
    const std::size_t downs = in.below(4);
    for (std::size_t i = 0; i < downs; ++i) {
        jaws::storage::NodeDownEvent ev;
        ev.node = jaws::util::NodeIndex{static_cast<std::uint32_t>(in.below(20))};
        ev.at = jaws::util::SimTime{in.range(-10, 1 << 20)};
        cluster.node.faults.node_down.push_back(ev);
    }

    // Accept or reject — never crash, never throw anything else.
    try {
        cluster.node.validate();
    } catch (const std::invalid_argument&) {
    }
    try {
        cluster.validate();
    } catch (const std::invalid_argument&) {
    }
    return 0;
}
