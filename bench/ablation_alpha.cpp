// Ablation B — Adaptive age bias versus a grid of fixed alphas.
//
// Sec. V-A's claim: the controller makes incremental throughput/response-time
// trade-offs as saturation changes, so a single JAWS instance tracks the best
// fixed alpha at both ends of the saturation range without manual tuning.
// We run JAWS_2 with fixed alpha in {0, 0.25, 0.5, 0.75, 1} and with the
// adaptive controller, at low and high saturation, and report both metrics.
#include "experiments.h"

int main(int argc, char** argv) {
    using namespace jaws;
    const std::size_t jobs = bench::jobs_from_args(argc, argv, 200);

    core::EngineConfig base = bench::base_config();
    const workload::Workload original = bench::base_workload(jobs, base);
    std::printf("# Ablation B: adaptive alpha vs fixed grid; %zu queries\n",
                original.total_queries());

    const double saturations[] = {0.25, 4.0};
    for (const double speedup : saturations) {
        workload::Workload w = original;
        workload::apply_speedup(w, speedup);
        std::printf("\n== speedup %.2f ==\n", speedup);
        std::printf("%-12s %12s %14s %10s\n", "alpha", "tp(q/s)", "rt_mean(s)", "a_end");

        for (const double alpha : {0.0, 0.25, 0.5, 0.75, 1.0}) {
            core::EngineConfig config = base;
            config.scheduler = bench::jaws2_spec();
            config.scheduler.jaws.adaptive_alpha = false;
            config.scheduler.jaws.alpha.initial_alpha = alpha;
            const core::RunReport r = bench::run_one(config, w);
            std::printf("%-12.2f %12.3f %14.1f %10.2f\n", alpha, r.busy_throughput_qps,
                        r.mean_response_ms / 1000.0, r.final_alpha);
            std::fflush(stdout);
        }
        core::EngineConfig config = base;
        config.scheduler = bench::jaws2_spec();  // adaptive on, alpha_0 = 0.5
        const core::RunReport r = bench::run_one(config, w);
        std::printf("%-12s %12.3f %14.1f %10.2f\n", "adaptive", r.busy_throughput_qps,
                    r.mean_response_ms / 1000.0, r.final_alpha);
    }
    std::printf("\n(adaptive should approach the best fixed alpha's throughput when\n"
                " saturated and the best fixed alpha's response time when idle)\n");
    return 0;
}
