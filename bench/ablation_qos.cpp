// Ablation D — Completion-time guarantees (paper Sec. VII, future work).
//
// "Predictable and fair completion time guarantees that are proportional to
// query size (e.g. short queries are delayed less than long queries) ...
// there is still elasticity in the workload that permits the reordering of
// queries to exploit data sharing." Every query gets a deadline of
// slack * its own estimated service time; the scheduler stays contention-
// ordered unless a deadline is at risk. We sweep the slack factor and report
// the miss rate, tardiness, rescue dispatches and the throughput retained
// relative to unconstrained JAWS.
#include "experiments.h"

int main(int argc, char** argv) {
    using namespace jaws;
    const std::size_t jobs = bench::jobs_from_args(argc, argv, 200);

    core::EngineConfig base = bench::base_config();
    const workload::Workload workload = bench::base_workload(jobs, base);
    std::printf("# Ablation D: completion-time guarantees; %zu queries\n\n",
                workload.total_queries());

    core::EngineConfig plain = base;
    plain.scheduler = bench::jaws2_spec();
    const core::RunReport unconstrained = bench::run_one(plain, workload);
    std::printf("unconstrained JAWS_2: tp=%.3f q/s, rt_mean=%.1f s\n\n",
                unconstrained.busy_throughput_qps,
                unconstrained.mean_response_ms / 1000.0);

    std::printf("%-10s %10s %12s %10s %12s %12s\n", "slack", "tp(q/s)", "tp vs free",
                "miss%", "tardy(ms)", "rescues");
    for (const double slack : {20.0, 50.0, 100.0, 300.0, 1000.0}) {
        core::EngineConfig config = base;
        config.scheduler = bench::jaws2_spec();
        config.scheduler.jaws.qos.enabled = true;
        config.scheduler.jaws.qos.slack_factor = slack;
        config.scheduler.jaws.qos.margin_ms = 3000.0;
        const core::RunReport r = bench::run_one(config, workload);
        std::printf("%-10.0f %10.3f %11.1f%% %9.1f%% %12.0f %12llu\n", slack,
                    r.busy_throughput_qps,
                    100.0 * r.busy_throughput_qps / unconstrained.busy_throughput_qps,
                    100.0 * r.qos.miss_rate(), r.qos.mean_tardiness_ms(),
                    static_cast<unsigned long long>(r.qos.edf_dispatches));
        std::fflush(stdout);
    }
    std::printf("\n(tighter guarantees trade throughput for punctuality; generous slack\n"
                " should approach the unconstrained throughput with near-zero misses)\n");
    return 0;
}
