// Adaptive starvation resistance — watching alpha track the workload.
//
// Replays the same trace at several saturation levels (the speed-up knob of
// Fig. 11) under JAWS's adaptive controller and under the two fixed extremes
// (alpha = 0, throughput-greedy; alpha = 1, arrival order). The point of
// Sec. V-A: one adaptive instance gets the throughput of alpha=0 when
// saturated and response times near alpha=1 when idle, without manual tuning.
//
//   $ ./adaptive_tradeoff [jobs]
#include <cstdint>
#include <cstdio>
#include <optional>

#include "core/engine.h"
#include "util/parse.h"
#include "workload/generator.h"

int main(int argc, char** argv) {
    using namespace jaws;
    const std::optional<std::uint64_t> jobs =
        argc > 1 ? util::parse_count(argv[1], 1, workload::WorkloadSpec::kMaxJobs) : 150;
    if (!jobs) {
        std::fprintf(stderr, "usage: %s [jobs]\n  jobs: 1 to %zu (default 150)\n", argv[0],
                     workload::WorkloadSpec::kMaxJobs);
        return 2;
    }

    core::EngineConfig base;
    const field::SyntheticField field(base.field);
    workload::WorkloadSpec wspec;
    wspec.jobs = *jobs;
    wspec.seed = 31;
    const workload::Workload original =
        workload::generate_workload(wspec, base.grid, field);
    std::printf("trace: %zu queries\n\n", original.total_queries());

    const auto run = [&](const workload::Workload& w, bool adaptive, double alpha0) {
        core::EngineConfig config = base;
        config.scheduler.kind = core::SchedulerKind::kJaws;
        config.scheduler.jaws.adaptive_alpha = adaptive;
        config.scheduler.jaws.alpha.initial_alpha = alpha0;
        core::Engine engine(config);
        return engine.run(w);
    };

    std::printf("%-10s %-12s %12s %14s %10s\n", "speedup", "policy", "tp(q/s)",
                "rt_mean(s)", "alpha_end");
    for (const double speedup : {0.25, 1.0, 8.0}) {
        workload::Workload w = original;
        workload::apply_speedup(w, speedup);
        const core::RunReport greedy = run(w, false, 0.0);
        const core::RunReport arrival = run(w, false, 1.0);
        const core::RunReport adaptive = run(w, true, 0.5);
        std::printf("%-10.2f %-12s %12.3f %14.1f %10.2f\n", speedup, "alpha=0",
                    greedy.busy_throughput_qps, greedy.mean_response_ms / 1000.0, 0.0);
        std::printf("%-10.2f %-12s %12.3f %14.1f %10.2f\n", speedup, "alpha=1",
                    arrival.busy_throughput_qps, arrival.mean_response_ms / 1000.0, 1.0);
        std::printf("%-10.2f %-12s %12.3f %14.1f %10.2f\n\n", speedup, "adaptive",
                    adaptive.busy_throughput_qps, adaptive.mean_response_ms / 1000.0,
                    adaptive.final_alpha);
    }
    std::puts("the adaptive row should sit near the better fixed extreme at each\n"
              "saturation level — throughput-greedy when overloaded, age-biased\n"
              "when the system has headroom.");

    // Timeline view: watch the controller and the backlog evolve over one
    // saturated run (RunReport::timeline, sampled every 10 virtual minutes).
    {
        workload::Workload w = original;
        workload::apply_speedup(w, 8.0);
        core::EngineConfig config = base;
        config.scheduler.kind = core::SchedulerKind::kJaws;
        config.timeline_window_s = 600.0;
        core::Engine engine(config);
        const core::RunReport report = engine.run(w);
        std::printf("\ntimeline of the speedup-8 adaptive run (10-minute windows):\n");
        std::printf("%10s %10s %12s %8s %10s\n", "t(min)", "done", "rt_mean(s)", "alpha",
                    "backlog");
        for (const auto& point : report.timeline)
            std::printf("%10.0f %10llu %12.1f %8.2f %10zu\n",
                        point.window_end.seconds() / 60.0,
                        static_cast<unsigned long long>(point.completions),
                        point.mean_response_ms / 1000.0, point.alpha,
                        point.backlog_subqueries);
    }
    return 0;
}
