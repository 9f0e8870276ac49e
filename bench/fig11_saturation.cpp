// Fig. 11 — Sensitivity of performance to varying workload saturation.
//
// The speed-up knob compresses inter-job arrival gaps (speed-up 2 turns a
// 2-minute gap into 1 minute). Paper results: (a) JAWS_2 and LifeRaft_2 keep
// scaling with saturation while NoShare and LifeRaft_1 plateau early;
// (b) response times — NoShare is worst throughout, LifeRaft_2 starves
// queries even at low saturation, and JAWS adapts: it approaches LifeRaft_2's
// throughput when saturated and beats LifeRaft_1's response time at the
// lowest saturation.
#include <cstdio>

#include "experiments.h"

int main(int argc, char** argv) {
    using namespace jaws;
    const bench::Experiment fig = bench::fig11(bench::jobs_from_args(argc, argv, 250),
                                               std::thread::hardware_concurrency());
    constexpr std::size_t systems = std::size(bench::kFig11Systems);
    const auto print_table = [&](const char* title, auto value) {
        std::printf("\n%s\n", title);
        std::printf("%-12s", "speedup");
        for (const char* label : bench::kFig11Systems) std::printf(" %12s", label);
        std::printf("\n");
        for (std::size_t i = 0; i < std::size(bench::kFig11Speedups); ++i) {
            std::printf("%-12.2f", bench::kFig11Speedups[i]);
            for (std::size_t s = 0; s < systems; ++s) value(fig.runs[i * systems + s]);
            std::printf("\n");
        }
    };
    std::printf("# Fig. 11 reproduction: %zu jobs, %zu queries per cell\n", fig.jobs,
                fig.queries);
    print_table("(a) query throughput (queries per busy second)",
                [](const core::RunReport& r) { std::printf(" %12.3f", r.busy_throughput_qps); });
    print_table("(b) mean query response time (seconds)", [](const core::RunReport& r) {
        std::printf(" %12.1f", r.mean_response_ms / 1000.0);
    });

    std::printf("\n(adaptive alpha at end of run, JAWS_2 column)\n");
    std::printf("%-12s %8s\n", "speedup", "alpha");
    for (std::size_t i = 0; i < std::size(bench::kFig11Speedups); ++i)
        std::printf("%-12.2f %8.2f\n", bench::kFig11Speedups[i],
                    fig.runs[i * systems + systems - 1].final_alpha);
    return 0;
}
