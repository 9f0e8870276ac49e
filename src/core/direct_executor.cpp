#include "core/direct_executor.h"

#include <cmath>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>

#include "cache/lru.h"
#include "util/wallclock.h"
#include "workload/query.h"

namespace jaws::core {

DirectExecutor::DirectExecutor(const EngineConfig& config)
    : store_(storage::AtomStoreSpec{config.grid, config.field, config.disk,
                                    /*io_channels=*/1,
                                    /*materialize_data=*/true, config.faults}),
      cache_(config.cache.capacity_atoms, std::make_unique<cache::LruPolicy>()),
      db_(config.grid, config.compute) {
    // A failed read has no retry path here: it would be cached as a resident
    // atom without data and evaluated as one.
    if (config.faults.storage_faults_enabled())
        throw std::invalid_argument(
            "DirectExecutor: config.faults enables storage faults, but direct "
            "evaluation does not retry reads");
    if (config.cache.wall_clock_overhead) cache_.set_tick_source(util::wall_clock_ns);
}

DirectResult DirectExecutor::evaluate(std::uint32_t timestep,
                                      const std::vector<field::Vec3>& positions,
                                      field::InterpOrder order) {
    // The kernel reads only the atom's own voxels and its ghost region.
    if (field::kernel_half_width(order) > grid().ghost)
        throw std::invalid_argument(
            "DirectExecutor::evaluate: interpolation order " +
            std::to_string(static_cast<int>(order)) + " needs kernel half-width " +
            std::to_string(field::kernel_half_width(order)) + " <= grid.ghost (" +
            std::to_string(grid().ghost) + ")");
    // Group once, then read, cache and evaluate atom by atom in Morton order,
    // as the production system does (paper Sec. III-A): each atom is read
    // once, and all cost accounting happens in this deterministic order.
    const workload::AtomGrouping groups = workload::group_by_atom(grid(), timestep, positions);
    DirectResult result;
    result.samples.resize(positions.size());
    std::size_t next = 0;  // grouped index of the entry's first point
    for (const workload::AtomRequest& req : groups.footprint) {
        if (cache_.lookup(req.atom)) {
            ++result.cache_hits;
        } else {
            ++result.cache_misses;
            storage::ReadResult rr = store_.read(req.atom);
            result.virtual_cost += rr.io_cost;
            cache_.insert(req.atom, std::move(rr.data));
        }
        result.virtual_cost += db_.modeled_cost(req.positions);
        const storage::SubQueryExec exec{req.atom,
                                         std::span(groups.positions).subspan(next, req.positions),
                                         order, storage::ComputeKind::kVelocity};
        // Samples come back in the slice's order; write each to its caller's slot.
        for (const field::FlowSample& s : db_.execute(exec, cache_.payload(req.atom).get()))
            result.samples[groups.order[next++]] = s;
    }
    return result;
}

namespace {
/// Reject a box corner with a coordinate outside [0, 1), NaN included.
void require_unit_coordinates(const field::Vec3& corner, const char* name) {
    for (const double c : {corner.x, corner.y, corner.z})
        if (!(c >= 0.0 && c < 1.0))
            throw std::invalid_argument("DirectExecutor::evaluate_box: " + std::string(name) +
                                        " has coordinate " + std::to_string(c) +
                                        " outside [0, 1)");
}
}  // namespace

VolumeStats DirectExecutor::evaluate_box(std::uint32_t timestep, const field::Vec3& lo,
                                         const field::Vec3& hi,
                                         std::uint32_t samples_per_axis,
                                         field::InterpOrder order) {
    // Checked in every build, not asserted: an empty lattice averages zero
    // samples into NaN statistics, and a NaN corner yields NaN positions.
    if (samples_per_axis == 0)
        throw std::invalid_argument(
            "DirectExecutor::evaluate_box: samples_per_axis must be positive");
    require_unit_coordinates(lo, "lo");
    require_unit_coordinates(hi, "hi");
    if (lo.x > hi.x || lo.y > hi.y || lo.z > hi.z)
        throw std::invalid_argument(
            "DirectExecutor::evaluate_box: lo exceeds hi on some axis");
    // Regular sampling lattice over the box (cell-centred so a 1-sample axis
    // lands in the middle of the box rather than on its face).
    std::vector<field::Vec3> lattice;
    lattice.reserve(static_cast<std::size_t>(samples_per_axis) * samples_per_axis *
                    samples_per_axis);
    const auto coord = [&](double a, double b, std::uint32_t i) {
        return field::wrap01(a + (b - a) * (static_cast<double>(i) + 0.5) /
                                     static_cast<double>(samples_per_axis));
    };
    for (std::uint32_t iz = 0; iz < samples_per_axis; ++iz)
        for (std::uint32_t iy = 0; iy < samples_per_axis; ++iy)
            for (std::uint32_t ix = 0; ix < samples_per_axis; ++ix)
                lattice.push_back(field::Vec3{coord(lo.x, hi.x, ix), coord(lo.y, hi.y, iy),
                                              coord(lo.z, hi.z, iz)});

    const DirectResult result = evaluate(timestep, lattice, order);

    VolumeStats stats;
    stats.samples = result.samples.size();
    stats.virtual_cost = result.virtual_cost;
    stats.atoms_touched = result.cache_hits + result.cache_misses;
    double sum_p = 0.0, sum_p2 = 0.0, sum_speed2 = 0.0;
    for (const auto& s : result.samples) {
        stats.mean_velocity = stats.mean_velocity + s.velocity;
        sum_speed2 += s.velocity.norm2();
        sum_p += s.pressure;
        sum_p2 += s.pressure * s.pressure;
    }
    const auto n = static_cast<double>(stats.samples);
    stats.mean_velocity = (1.0 / n) * stats.mean_velocity;
    stats.rms_velocity = std::sqrt(sum_speed2 / n);
    stats.mean_pressure = sum_p / n;
    stats.pressure_variance =
        std::max(0.0, sum_p2 / n - stats.mean_pressure * stats.mean_pressure);
    stats.kinetic_energy = 0.5 * sum_speed2 / n;
    return stats;
}

}  // namespace jaws::core
