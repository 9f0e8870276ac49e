// Fig. 12 — Performance impact of varying batch size k in JAWS.
//
// Paper results: the optimum lies between k = 10 and 15; even k = 1 beats
// LifeRaft_2 thanks to job-awareness; beyond k = 20 performance degrades
// (cache flushing, scheduling conforms less to contention); and past ~50 the
// impact is marginal because only atoms with workload throughput above the
// step mean are eligible.
#include <cstdio>

#include "experiments.h"

int main(int argc, char** argv) {
    using namespace jaws;
    const bench::Experiment fig = bench::fig12(bench::jobs_from_args(argc, argv, 200),
                                               std::thread::hardware_concurrency());
    std::printf("# Fig. 12 reproduction: %zu jobs, %zu queries\n", fig.jobs, fig.queries);
    std::printf("LifeRaft_2 reference: tp=%.3f q/s\n\n", fig.runs[0].busy_throughput_qps);

    std::printf("%6s %12s %12s %8s %10s\n", "k", "tp(q/s)", "rt_mean(ms)", "hit%", "reads");
    for (std::size_t i = 0; i < std::size(bench::kFig12Ks); ++i) {
        const core::RunReport& r = fig.runs[1 + i];
        std::printf("%6zu %12.3f %12.1f %7.1f%% %10llu\n", bench::kFig12Ks[i],
                    r.busy_throughput_qps, r.mean_response_ms, 100.0 * r.cache.hit_rate(),
                    static_cast<unsigned long long>(r.atom_reads));
    }
    std::printf("\nbest k = %zu (paper: optimum between 10 and 15)\n", bench::fig12_best_k(fig));
    return 0;
}
