// Fig. 8 — Distribution of jobs by execution time.
//
// Paper characterisation: job durations are heavy-tailed; a majority (~63%)
// persist between one and thirty minutes. The paper's figure is derived from
// the production SQL log, whose per-job spans include queueing and execution
// on the live cluster — so we reproduce it the same way: run the generated
// trace through the engine (JAWS configuration) and histogram the measured
// wall span of every job (completion of its last query minus its arrival).
#include "experiments.h"
#include "util/stats.h"

int main(int argc, char** argv) {
    using namespace jaws;
    const std::size_t jobs = bench::jobs_from_args(argc, argv, 400);

    core::EngineConfig base = bench::base_config();
    const workload::Workload workload = bench::base_workload(jobs, base);

    core::EngineConfig config = base;
    config.scheduler = bench::jaws2_spec();
    const core::RunReport report = bench::run_one(config, workload);

    util::Histogram hist({0.0, 1.0, 5.0, 30.0, 60.0, 240.0});
    util::RunningStats stats;
    for (const double span_ms : report.job_span_ms) {
        const double minutes = span_ms / 60000.0;
        hist.add(minutes);
        stats.add(minutes);
    }
    std::size_t in_jobs = 0, total_queries = 0;
    for (const auto& job : workload.jobs) {
        total_queries += job.queries.size();
        if (job.queries.size() > 1) in_jobs += job.queries.size();
    }

    std::printf("# Fig. 8 reproduction: distribution of jobs by execution time\n");
    std::printf("# %zu jobs, %zu queries; mean duration %.1f min, max %.1f min\n",
                workload.jobs.size(), total_queries, stats.mean(), stats.max());
    std::printf("%s", hist.to_table("duration (minutes)").c_str());

    const double frac_1_30 = hist.fraction(1) + hist.fraction(2);
    std::printf("\nfraction of jobs lasting 1-30 min : %5.1f%%  (paper: ~63%%)\n",
                100.0 * frac_1_30);
    std::printf("fraction of queries in multi-query jobs: %5.1f%%  (paper: >95%%)\n",
                100.0 * static_cast<double>(in_jobs) / static_cast<double>(total_queries));
    return 0;
}
