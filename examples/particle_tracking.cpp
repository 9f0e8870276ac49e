// Particle tracking — the paper's canonical ordered experiment, end to end
// with real data.
//
// A cloud of particles is seeded in a ball and tracked through the synthetic
// turbulence: at each time step the example queries the database for
// interpolated velocities at the current particle positions (the only thing
// a real Turbulence client can do), advances the particles, and moves to the
// next step — so every query genuinely depends on the previous one's result.
// At the end it compares the database-driven trajectory against advection
// with the analytic field and reports the cloud's dispersion statistics.
//
//   $ ./particle_tracking [particles] [steps]
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>

#include "core/direct_executor.h"
#include "util/parse.h"
#include "util/stats.h"
#include "workload/particle_tracker.h"

namespace {

/// Bounds the particle clouds the example holds in memory.
constexpr std::uint64_t kMaxParticles = 1'000'000;

jaws::core::EngineConfig tracking_config() {
    jaws::core::EngineConfig config;
    config.grid.voxels_per_side = 256;  // keep materialised atoms small
    config.grid.atom_side = 32;
    config.grid.ghost = 4;              // room for order-8 kernels
    config.grid.timesteps = 16;
    config.field.modes = 10;
    config.field.max_wavenumber = 4.0;
    config.cache.capacity_atoms = 64;
    return config;
}

double torus_distance(const jaws::field::Vec3& a, const jaws::field::Vec3& b) {
    const auto d1 = [](double x, double y) {
        const double d = std::fabs(x - y);
        return std::min(d, 1.0 - d);
    };
    const double dx = d1(a.x, b.x), dy = d1(a.y, b.y), dz = d1(a.z, b.z);
    return std::sqrt(dx * dx + dy * dy + dz * dz);
}

}  // namespace

int main(int argc, char** argv) {
    using namespace jaws;
    const core::EngineConfig config = tracking_config();
    // A run of `steps` steps queries time steps 0 to steps - 2 of the grid.
    const std::uint64_t max_steps = std::uint64_t{config.grid.timesteps} + 1;
    const std::optional<std::uint64_t> particles =
        argc > 1 ? util::parse_count(argv[1], 1, kMaxParticles) : 512;
    const std::optional<std::uint64_t> steps_arg =
        argc > 2 ? util::parse_count(argv[2], 2, max_steps) : 12;
    if (!particles || !steps_arg) {
        std::fprintf(stderr,
                     "usage: %s [particles] [steps]\n"
                     "  particles: 1 to %llu (default 512)\n"
                     "  steps: 2 to %llu (default 12)\n",
                     argv[0], static_cast<unsigned long long>(kMaxParticles),
                     static_cast<unsigned long long>(max_steps));
        return 2;
    }
    const auto steps = static_cast<std::uint32_t>(*steps_arg);

    core::DirectExecutor db(config);

    workload::ParticleTrackingSpec spec;
    spec.particles = *particles;
    spec.seed_center = {0.5, 0.5, 0.5};
    spec.seed_radius = 0.05;
    std::vector<field::Vec3> cloud = workload::seed_particles(spec);
    std::vector<field::Vec3> truth_cloud = cloud;
    const field::Vec3 origin = spec.seed_center;

    std::printf("tracking %zu particles over %u steps (dt = %.4f s)\n\n", cloud.size(),
                steps, config.grid.dt);
    std::printf("%5s %12s %12s %10s %10s %12s\n", "step", "dispersion", "drift", "hits",
                "misses", "db-vs-truth");

    for (std::uint32_t step = 0; step + 1 < steps; ++step) {
        // --- the database round trip a real experiment performs ---
        const core::DirectResult result =
            db.evaluate(step, cloud, field::InterpOrder::kLag6);
        const double t = config.grid.sim_time(step);
        for (std::size_t i = 0; i < cloud.size(); ++i) {
            cloud[i] = field::Vec3{
                field::wrap01(cloud[i].x + config.grid.dt * result.samples[i].velocity.x),
                field::wrap01(cloud[i].y + config.grid.dt * result.samples[i].velocity.y),
                field::wrap01(cloud[i].z + config.grid.dt * result.samples[i].velocity.z)};
        }
        // --- ground truth with the analytic field, same integrator ---
        for (auto& p : truth_cloud) {
            const field::Vec3 v = db.field().velocity(p, t);
            p = field::Vec3{field::wrap01(p.x + config.grid.dt * v.x),
                            field::wrap01(p.y + config.grid.dt * v.y),
                            field::wrap01(p.z + config.grid.dt * v.z)};
        }

        // Cloud statistics: RMS dispersion about the seed centre, centre
        // drift, and the interpolation error versus the analytic path.
        util::RunningStats radius;
        field::Vec3 mean{};
        double max_err = 0.0;
        for (std::size_t i = 0; i < cloud.size(); ++i) {
            radius.add(torus_distance(cloud[i], origin));
            mean = mean + cloud[i];
            max_err = std::max(max_err, torus_distance(cloud[i], truth_cloud[i]));
        }
        mean = (1.0 / static_cast<double>(cloud.size())) * mean;
        std::printf("%5u %12.5f %12.5f %10llu %10llu %12.3e\n", step + 1, radius.mean(),
                    torus_distance(mean, origin),
                    static_cast<unsigned long long>(result.cache_hits),
                    static_cast<unsigned long long>(result.cache_misses), max_err);
    }

    const auto& cs = db.cache_stats();
    std::printf("\ncache: %.1f%% hit rate over the experiment (%llu hits, %llu misses)\n",
                100.0 * cs.hit_rate(), static_cast<unsigned long long>(cs.hits),
                static_cast<unsigned long long>(cs.misses));
    std::puts("dispersion grows with time while the database-driven trajectory stays\n"
              "within interpolation error of the analytic one — the data dependency\n"
              "of ordered jobs is real, not scripted.");
    return 0;
}
