// Fig. 9 — Distribution of queries by time step accessed.
//
// Paper characterisation: ~70% of queries reuse data from about a dozen time
// steps clustered at the start and end of simulation time; a secondary spike
// sits around 0.25-0.4 s of simulation time; and access frequency trends
// downward with simulation time because jobs that iterate over all time often
// terminate midway. This bench prints the per-step histogram of the generated
// trace and checks each qualitative feature.
#include <algorithm>

#include "experiments.h"

int main(int argc, char** argv) {
    using namespace jaws;
    const std::size_t jobs = bench::jobs_from_args(argc, argv, 1000);

    core::EngineConfig base = bench::base_config();
    const workload::Workload workload = bench::base_workload(jobs, base);

    const auto counts = workload::queries_per_timestep(workload, base.grid.timesteps);
    std::uint64_t total = 0;
    for (const auto c : counts) total += c;
    if (total == 0) return 1;

    std::printf("# Fig. 9 reproduction: distribution of queries by time step\n");
    std::printf("%6s %12s %7s  histogram\n", "step", "queries", "frac");
    const std::uint64_t peak = *std::max_element(counts.begin(), counts.end());
    for (std::uint32_t t = 0; t < counts.size(); ++t) {
        const double frac = static_cast<double>(counts[t]) / static_cast<double>(total);
        const int bar = peak ? static_cast<int>(48.0 * static_cast<double>(counts[t]) /
                                                static_cast<double>(peak))
                             : 0;
        std::printf("%6u %12llu %6.1f%%  %.*s\n", t,
                    static_cast<unsigned long long>(counts[t]), 100.0 * frac, bar,
                    "################################################");
    }

    // Feature checks.
    std::vector<std::uint64_t> sorted(counts.begin(), counts.end());
    std::sort(sorted.rbegin(), sorted.rend());
    std::uint64_t top12 = 0;
    for (std::size_t i = 0; i < std::min<std::size_t>(12, sorted.size()); ++i)
        top12 += sorted[i];
    std::printf("\ntop-12 steps carry %5.1f%% of queries (paper: ~70%%)\n",
                100.0 * static_cast<double>(top12) / static_cast<double>(total));

    std::uint64_t first_half = 0;
    const std::size_t half = counts.size() / 2;
    for (std::size_t t = 0; t < half; ++t) first_half += counts[t];
    std::printf("first half of simulation time: %5.1f%% (downward trend => >50%%)\n",
                100.0 * static_cast<double>(first_half) / static_cast<double>(total));
    return 0;
}
