// Ablation A — Cost and payoff of the gating machinery as jobs scale.
//
// The paper bounds the dynamic-program phase at O(n^2 m^2) and the greedy
// merge at O(n^3 m^2) but argues the overhead is low in practice because the
// graph is sparse and completed queries are pruned. This ablation measures
// (1) the wall-clock cost of incrementally merging n concurrent ordered jobs
// of m queries each into the precedence graph, and (2) the scheduling payoff
// (edges admitted, atom reads saved) of gating on a burst-structured
// workload, as the number of jobs grows.
#include <chrono>

#include "experiments.h"
#include "sched/precedence_graph.h"

namespace {

using namespace jaws;

/// n near-identical ordered jobs of m queries over one hotspot trajectory.
workload::Workload tracking_campaign(std::size_t n, std::size_t m,
                                     const field::GridSpec& grid,
                                     const field::SyntheticField& field) {
    workload::WorkloadSpec spec;
    spec.jobs = n;
    spec.seed = 99;
    spec.mean_jobs_per_burst = 4.0;
    spec.frac_single_step = 1.0;
    spec.frac_full_span = 0.0;
    spec.frac_ordered_single_step = 1.0;  // every job is an ordered chain
    spec.ordered_chain_mu = std::log(static_cast<double>(m));
    spec.ordered_chain_sigma = 0.0;
    spec.hotspots = 2;
    return workload::generate_workload(spec, grid, field);
}

}  // namespace

int main(int argc, char** argv) {
    const std::size_t max_jobs = bench::jobs_from_args(argc, argv, 256);
    core::EngineConfig base = bench::base_config();
    const field::SyntheticField field(base.field);

    std::printf("# Ablation A: gating graph cost/payoff vs number of jobs (m = 24)\n");
    std::printf("%8s %10s %12s %12s %14s\n", "jobs", "edges", "aligns", "merge(ms)",
                "reads saved");
    for (std::size_t n = 2; n <= max_jobs; n *= 2) {
        const workload::Workload w = tracking_campaign(n, 24, base.grid, field);

        // (1) pure graph cost: merge all jobs, measure wall time.
        sched::PrecedenceGraph graph(true);
        const auto start = std::chrono::steady_clock::now();
        for (const auto& job : w.jobs) graph.add_job(job);
        const double merge_ms =
            std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                      start)
                .count();

        // (2) payoff: full engine run with and without job-awareness.
        core::EngineConfig with = base;
        with.scheduler = bench::jaws2_spec();
        const core::RunReport r2 = bench::run_one(with, w);
        core::EngineConfig without = base;
        without.scheduler = bench::jaws1_spec();
        const core::RunReport r1 = bench::run_one(without, w);

        std::printf("%8zu %10zu %12zu %12.2f %14lld\n", n, graph.stats().edges_admitted,
                    graph.stats().alignments_run, merge_ms,
                    static_cast<long long>(r1.atom_reads) -
                        static_cast<long long>(r2.atom_reads));
        std::fflush(stdout);
    }
    std::printf("\n(merge cost should grow ~quadratically in jobs and stay in the\n"
                " milliseconds; reads saved should grow with job count)\n");
    return 0;
}
