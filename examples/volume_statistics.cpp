// Volume statistics — the paper's query class (1): "evaluating statistical
// arrays of turbulence quantities over the entire or parts of the volume".
//
// Scans a sub-volume at several time steps, printing the statistical array a
// turbulence scientist would pull (RMS velocity, kinetic energy, pressure
// moments) and the I/O behaviour of the Morton-ordered box scan: atoms are
// visited once each, and re-scanning an overlapping box hits the cache.
//
//   $ ./volume_statistics [samples_per_axis]
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>

#include "core/direct_executor.h"
#include "util/parse.h"

int main(int argc, char** argv) {
    using namespace jaws;
    const std::optional<std::uint64_t> samples_arg =
        argc > 1 ? util::parse_count(argv[1], 1, std::numeric_limits<std::uint32_t>::max())
                 : 12;
    if (!samples_arg) {
        std::fprintf(stderr, "usage: %s [samples_per_axis]  (a positive integer)\n", argv[0]);
        return 2;
    }
    const auto samples = static_cast<std::uint32_t>(*samples_arg);

    core::EngineConfig config;
    config.grid.voxels_per_side = 256;
    config.grid.atom_side = 32;
    config.grid.ghost = 4;
    config.grid.timesteps = 8;
    config.field.modes = 10;
    config.cache.capacity_atoms = 128;
    core::DirectExecutor db(config);

    const field::Vec3 lo{0.25, 0.25, 0.25}, hi{0.75, 0.75, 0.75};
    std::printf("statistical arrays over the box [%.2f,%.2f]^3, %u^3 samples per step\n\n",
                lo.x, hi.x, samples);
    std::printf("%5s %10s %10s %12s %12s %10s %10s\n", "step", "rms|u|", "0.5<u^2>",
                "<p>", "var(p)", "atoms", "cost(ms)");
    for (std::uint32_t step = 0; step < config.grid.timesteps; ++step) {
        const core::VolumeStats s = db.evaluate_box(step, lo, hi, samples);
        std::printf("%5u %10.4f %10.4f %12.5f %12.5f %10llu %10.1f\n", step,
                    s.rms_velocity, s.kinetic_energy, s.mean_pressure, s.pressure_variance,
                    static_cast<unsigned long long>(s.atoms_touched),
                    s.virtual_cost.millis());
    }

    // Re-scan an overlapping box at the last step: the shared atoms are
    // already cached, so the scan is mostly compute.
    const std::uint32_t last = config.grid.timesteps - 1;
    const core::VolumeStats again =
        db.evaluate_box(last, {0.3, 0.3, 0.3}, {0.8, 0.8, 0.8}, samples);
    std::printf("\noverlapping re-scan at step %u: cost %.1f ms over %llu atoms "
                "(cache absorbs the shared region)\n",
                last, again.virtual_cost.millis(),
                static_cast<unsigned long long>(again.atoms_touched));
    std::printf("cache: %.1f%% hit rate across the whole session\n",
                100.0 * db.cache_stats().hit_rate());
    return 0;
}
