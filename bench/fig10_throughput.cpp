// Fig. 10 — Query throughput by scheduling algorithm.
//
// Paper result: JAWS_2 improves query throughput ~2.6x over NoShare; removing
// job-awareness (JAWS_1) costs ~30%; two-level scheduling contributes ~12%
// (JAWS_1 over LifeRaft_2); contention ordering contributes ~22% (LifeRaft_2
// over LifeRaft_1). This bench runs the five systems on the same calibrated
// trace and prints the throughput column plus the paper's derived ratios.
#include <cstdio>

#include "experiments.h"

int main(int argc, char** argv) {
    using namespace jaws;
    const bench::Experiment fig = bench::fig10(bench::jobs_from_args(argc, argv, 400),
                                               std::thread::hardware_concurrency());
    std::printf("# Fig. 10 reproduction: %zu jobs, %zu queries\n", fig.jobs, fig.queries);
    std::printf("%-22s %10s %12s %12s %8s %10s %8s\n", "scheduler", "tp(q/s)", "rt_mean(ms)",
                "rt_p95(ms)", "hit%", "reads", "alpha");
    for (const core::RunReport& r : fig.runs)
        std::printf("%-22s %10.3f %12.1f %12.1f %7.1f%% %10llu %8.2f\n", r.scheduler_name.c_str(),
                    r.busy_throughput_qps, r.mean_response_ms, r.p95_response_ms,
                    100.0 * r.cache.hit_rate(), static_cast<unsigned long long>(r.atom_reads),
                    r.final_alpha);

    const double noshare = fig.runs[0].busy_throughput_qps;
    const double lr1 = fig.runs[1].busy_throughput_qps;
    const double lr2 = fig.runs[2].busy_throughput_qps;
    const double jaws1 = fig.runs[3].busy_throughput_qps;
    const double jaws2 = fig.runs[4].busy_throughput_qps;
    std::printf("\n# ratios (paper targets in parentheses)\n");
    std::printf("JAWS_2 / NoShare     = %.2fx  (~2.6x)\n", jaws2 / noshare);
    std::printf("JAWS_2 / JAWS_1      = %.2fx  (~1.43x: job-awareness ~30%% drop)\n",
                jaws2 / jaws1);
    std::printf("JAWS_1 / LifeRaft_2  = %.2fx  (~1.12x: two-level ~12%%)\n", jaws1 / lr2);
    std::printf("LifeRaft_2/LifeRaft_1= %.2fx  (~1.22x: contention ordering ~22%%)\n",
                lr2 / lr1);
    std::printf("JAWS_2 / LifeRaft_2  = %.2fx  (~1.6x overall)\n", jaws2 / lr2);
    return 0;
}
