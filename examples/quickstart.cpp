// Quickstart: generate a Turbulence-like workload, run it through three
// schedulers (NoShare, LifeRaft, JAWS), and compare throughput and response
// time — the smallest end-to-end tour of the library.
//
//   $ ./quickstart [jobs] [seed]
//
// The dataset and costs are scaled-down defaults so the whole demo finishes
// in a couple of seconds; see bench/ for the paper-scale reproductions.
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>

#include "core/engine.h"
#include "util/parse.h"
#include "workload/generator.h"

namespace {

jaws::core::EngineConfig small_config() {
    // Paper-scale dataset geometry (1024^3 grid, 4096 atoms per step, 31
    // steps); the data is lazy, so this costs nothing until atoms are read.
    return jaws::core::EngineConfig{};
}

}  // namespace

int main(int argc, char** argv) {
    using namespace jaws;
    const std::optional<std::uint64_t> jobs =
        argc > 1 ? util::parse_count(argv[1], 1, workload::WorkloadSpec::kMaxJobs) : 120;
    const std::optional<std::uint64_t> seed =
        argc > 2 ? util::parse_count(argv[2], 0, std::numeric_limits<std::uint64_t>::max())
                 : 7;
    if (!jobs || !seed) {
        std::fprintf(stderr,
                     "usage: %s [jobs] [seed]\n"
                     "  jobs: 1 to %zu (default 120)\n"
                     "  seed: any unsigned 64-bit integer (default 7)\n",
                     argv[0], workload::WorkloadSpec::kMaxJobs);
        return 2;
    }

    // 1. A synthetic turbulence dataset (lazy — nothing is materialised yet).
    core::EngineConfig base = small_config();
    const field::SyntheticField field(base.field);

    // 2. A calibrated workload: bursty arrivals, ordered particle-tracking
    //    jobs with real flow-driven drift, batched statistics jobs.
    workload::WorkloadSpec wspec;
    wspec.jobs = *jobs;
    wspec.seed = *seed;
    const workload::Workload workload = workload::generate_workload(wspec, base.grid, field);
    std::printf("workload: %zu jobs, %zu queries\n", workload.jobs.size(),
                workload.total_queries());

    // 3. Run the same workload through the three schedulers of the paper.
    const auto run_with = [&](core::SchedulerSpec sched) {
        core::EngineConfig config = base;
        config.scheduler = sched;
        core::Engine engine(config);
        const core::RunReport report = engine.run(workload);
        std::printf("  %s\n", report.summary().c_str());
        return report;
    };

    std::puts("schedulers:");
    core::SchedulerSpec noshare;
    noshare.kind = core::SchedulerKind::kNoShare;
    const auto r_noshare = run_with(noshare);

    core::SchedulerSpec liferaft;
    liferaft.kind = core::SchedulerKind::kLifeRaft;
    liferaft.liferaft_alpha = 0.0;
    const auto r_liferaft = run_with(liferaft);

    core::SchedulerSpec jaws2;
    jaws2.kind = core::SchedulerKind::kJaws;
    const auto r_jaws = run_with(jaws2);

    std::printf("\nJAWS speedup over NoShare: %.2fx (LifeRaft: %.2fx)\n",
                r_jaws.throughput_qps / r_noshare.throughput_qps,
                r_liferaft.throughput_qps / r_noshare.throughput_qps);
    std::printf("gating: %zu edges admitted, %zu forced promotions\n",
                r_jaws.gating.edges_admitted, r_jaws.gating.forced_promotions);
    return 0;
}
