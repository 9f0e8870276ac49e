#include "core/config.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace jaws::core {

namespace {

[[noreturn]] void fail(const std::string& what) {
    throw std::invalid_argument("EngineConfig::validate: " + what);
}

void require_probability(double p, const char* name) {
    if (!(p >= 0.0 && p <= 1.0))
        fail(std::string(name) + " must lie in [0, 1], got " + std::to_string(p));
}

void require_non_negative(double v, const char* name) {
    // !(>= 0) also rejects NaN; the explicit finiteness check rejects +inf,
    // which would otherwise flow into virtual-time conversions and saturate
    // the clock (found by fuzz/fuzz_config.cpp).
    if (!(v >= 0.0) || !std::isfinite(v))
        fail(std::string(name) + " must be finite and non-negative, got " +
             std::to_string(v));
}

void require_finite(double v, const char* name) {
    if (!std::isfinite(v))
        fail(std::string(name) + " must be finite, got " + std::to_string(v));
}

}  // namespace

void EngineConfig::validate() const {
    if (grid.atom_side == 0) fail("grid.atom_side must be positive");
    if (grid.voxels_per_side == 0) fail("grid.voxels_per_side must be positive");
    if (grid.voxels_per_side % grid.atom_side != 0)
        fail("grid.atom_side " + std::to_string(grid.atom_side) +
             " does not divide grid.voxels_per_side " +
             std::to_string(grid.voxels_per_side) +
             " (atoms must tile the grid exactly)");
    if (grid.timesteps == 0) fail("grid.timesteps must be positive");
    if (cache.capacity_atoms == 0)
        fail("cache.capacity_atoms must be positive (a node cannot run without "
             "buffer memory)");

    if (io_depth == 0)
        fail("io_depth must be at least 1 (one disk service channel)");
    if (compute_workers == 0)
        fail("compute_workers must be at least 1 (one evaluation server)");
    if (io_depth > 1024 || compute_workers > 1024)
        fail("io_depth/compute_workers above 1024 is outside the model's regime");

    require_non_negative(disk.settle_ms, "disk.settle_ms");
    require_non_negative(disk.seek_full_stroke_ms, "disk.seek_full_stroke_ms");
    if (!(disk.transfer_mb_per_s > 0.0) || !std::isfinite(disk.transfer_mb_per_s))
        fail("disk.transfer_mb_per_s must be finite and positive, got " +
             std::to_string(disk.transfer_mb_per_s));
    require_non_negative(compute.t_m_us, "compute.t_m_us");
    require_non_negative(estimates.t_b_ms, "estimates.t_b_ms");
    require_non_negative(estimates.t_m_ms, "estimates.t_m_ms");
    require_non_negative(timeline_window_s, "timeline_window_s");

    if (scheduler.kind == SchedulerKind::kLifeRaft)
        require_probability(scheduler.liferaft_alpha, "scheduler.liferaft_alpha");
    if (scheduler.kind == SchedulerKind::kJaws) {
        if (scheduler.jaws.batch_size_k == 0)
            fail("scheduler.jaws.batch_size_k must be positive");
        require_probability(scheduler.jaws.alpha.initial_alpha,
                            "scheduler.jaws.alpha.initial_alpha");
        if (scheduler.jaws.qos.enabled) {
            require_non_negative(scheduler.jaws.qos.slack_factor,
                                 "scheduler.jaws.qos.slack_factor");
            require_non_negative(scheduler.jaws.qos.margin_ms,
                                 "scheduler.jaws.qos.margin_ms");
        }
    }

    require_probability(faults.transient_error_rate, "faults.transient_error_rate");
    require_probability(faults.latency_spike_rate, "faults.latency_spike_rate");
    require_non_negative(faults.latency_spike_mean_ms, "faults.latency_spike_mean_ms");
    require_probability(faults.stuck_read_rate, "faults.stuck_read_rate");
    require_non_negative(faults.stuck_read_ms, "faults.stuck_read_ms");

    require_probability(disk.heavy_tail.rate, "disk.heavy_tail.rate");
    require_non_negative(disk.heavy_tail.lognormal_sigma,
                         "disk.heavy_tail.lognormal_sigma");
    if (disk.heavy_tail.rate > 0.0)
        require_finite(disk.heavy_tail.lognormal_mu, "disk.heavy_tail.lognormal_mu");

    if (hedge.enabled) {
        if (!(hedge.trigger_ewma_multiplier > 0.0) ||
            !std::isfinite(hedge.trigger_ewma_multiplier))
            fail("hedge.trigger_ewma_multiplier must be finite and positive, got " +
                 std::to_string(hedge.trigger_ewma_multiplier));
        if (hedge.max_outstanding == 0)
            fail("hedge.max_outstanding must be at least 1 when hedging is enabled");
        if (hedge.budget_per_query == 0)
            fail("hedge.budget_per_query must be at least 1 when hedging is enabled");
    }
    require_non_negative(deadline_budget_ms, "deadline_budget_ms");
}

}  // namespace jaws::core
