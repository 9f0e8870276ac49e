// Overlapped-I/O ablation — what the event kernel's pipeline buys.
//
// The engine models a disk with `io_depth` service channels and a CPU pool
// with `compute_workers` workers; batch items flow read -> evaluate with up
// to io_depth items in flight, so deeper pipelines hide read latency behind
// evaluation of earlier items. This harness sweeps io_depth x compute_workers
// on a dense, cold-cache workload (the I/O-bound regime) and reports the
// makespan alongside the kernel's resource accounting: disk/CPU utilization
// and the fraction of the run where I/O and compute proceeded
// simultaneously. io_depth = 1, compute_workers = 1 is bit-identical to the
// pre-kernel serial engine and anchors the comparison.
//
// The second section measures the *real* parallel-evaluation path: a
// compute-bound materialized fixture where sub-query interpolation runs on
// util::ThreadPool, timed with util::wall_clock_ns (bench-only; tests stay on
// virtual time). One timing cannot tell a pool gain from host noise, so each
// configuration runs five times, inline and pooled runs alternating, and the
// rows report median wall times. Results land in BENCH_parallel_eval.json
// next to stdout.
//
// Also emits a machine-readable CSV block (prefixed `csv,`) for plotting.
#include <algorithm>
#include <cinttypes>
#include <thread>

#include "experiments.h"
#include "util/wallclock.h"

namespace {

jaws::core::EngineConfig overlap_config(std::size_t io_depth, std::size_t workers) {
    jaws::core::EngineConfig config = jaws::bench::base_config();
    config.scheduler = jaws::bench::jaws2_spec();
    config.io_depth = io_depth;
    config.compute_workers = workers;
    return config;
}

// Compute-bound materialized fixture: small grid, every query carries
// explicit positions, so real Lagrange interpolation dominates the run's
// wall time and the evaluation pool is the binding resource.
jaws::core::EngineConfig parallel_eval_config(std::size_t workers, bool pooled) {
    jaws::core::EngineConfig config;
    config.scheduler = jaws::bench::jaws2_spec();
    config.grid.voxels_per_side = 128;
    config.grid.atom_side = 32;
    config.grid.ghost = 4;
    config.grid.timesteps = 4;
    config.field.modes = 4;
    config.cache.capacity_atoms = 16;
    config.run_length = 25;
    config.io_depth = 2;
    config.compute_workers = workers;
    config.materialize_data = true;
    config.eval.parallel = pooled;
    config.eval.wall_clock_timing = true;
    return config;
}

/// One parallel-evaluation configuration; the modeled fields come from its
/// first run, and every repeat must reproduce them.
struct EvalRow {
    std::size_t workers = 1;
    bool pooled = false;
    double modeled_s = 0.0;
    std::uint64_t eval_tasks = 0;
    std::uint64_t samples = 0;
    std::uint64_t digest = 0;
    std::vector<double> wall_ms{};  ///< One per repeat.
    std::vector<double> eval_ms{};  ///< One per repeat.
};

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
    using namespace jaws;
    const std::size_t jobs = bench::jobs_from_args(argc, argv, 200);

    core::EngineConfig base = overlap_config(1, 1);
    const field::SyntheticField field(base.field);
    // Dense arrivals keep a backlog of due queries, so the disk rarely waits
    // on the workload and the pipeline depth is the binding constraint.
    workload::WorkloadSpec wspec = bench::base_workload_spec();
    wspec.jobs = jobs;
    wspec.mean_burst_gap_s = 0.05;
    wspec.mean_intra_burst_gap_s = 0.05;
    wspec.mean_think_time_s = 0.01;
    wspec.frac_single_step = 1.0;
    wspec.frac_ordered_single_step = 0.0;
    const workload::Workload workload = workload::generate_workload(wspec, base.grid, field);
    std::printf("# Overlap ablation: JAWS_2, %zu queries, dense unordered arrivals\n\n",
                workload.total_queries());

    const std::size_t depths[] = {1, 2, 4, 8};
    const std::size_t worker_counts[] = {1, 2};
    std::printf("%-8s %-8s %12s %10s %10s %10s %10s %10s\n", "depth", "workers",
                "makespan(s)", "tp(q/s)", "disk_util", "cpu_util", "overlap", "speedup");
    std::vector<std::string> csv;
    csv.push_back("csv,io_depth,compute_workers,makespan_s,throughput_qps,disk_util,"
                  "cpu_util,overlap_fraction,prefetch_aborted");
    double serial_makespan = 0.0;
    for (const std::size_t workers : worker_counts) {
        for (const std::size_t depth : depths) {
            const core::RunReport r =
                bench::run_one(overlap_config(depth, workers), workload);
            if (depth == 1 && workers == 1) serial_makespan = r.makespan.seconds();
            std::printf("%-8zu %-8zu %12.1f %10.3f %9.1f%% %9.1f%% %9.1f%% %9.2fx\n",
                        depth, workers, r.makespan.seconds(), r.throughput_qps,
                        100.0 * r.disk_utilization, 100.0 * r.cpu_utilization,
                        100.0 * r.overlap_fraction,
                        serial_makespan / r.makespan.seconds());
            std::fflush(stdout);
            char row[256];
            std::snprintf(row, sizeof row, "csv,%zu,%zu,%.6f,%.6f,%.6f,%.6f,%.6f,%llu",
                          depth, workers, r.makespan.seconds(), r.throughput_qps,
                          r.disk_utilization, r.cpu_utilization, r.overlap_fraction,
                          static_cast<unsigned long long>(r.prefetch_aborted));
            csv.push_back(row);
        }
    }
    std::printf("\n");
    for (const std::string& row : csv) std::printf("%s\n", row.c_str());
    std::printf("\n(depth 1 / 1 worker reproduces the serial engine exactly; speedup\n"
                " saturates once the slower resource is the bottleneck)\n");

    // ------------------------------------------------------------------
    // Parallel real evaluation: wall-clock sweep over compute_workers.
    // ------------------------------------------------------------------
    const std::size_t eval_jobs = jobs >= 200 ? 8 : jobs;
    core::EngineConfig eval_base = parallel_eval_config(1, /*pooled=*/false);
    workload::WorkloadSpec espec;
    espec.jobs = eval_jobs;
    espec.seed = 5;
    // Heavy per-query interpolation (median ~8100 positions instead of the
    // trace's ~490) so the real Lagrange kernels dominate the wall time
    // (~80% of the run) and the pool is the binding resource.
    espec.positions_mu = 9.0;
    espec.min_positions = 4000;
    espec.max_positions = 60000;
    const field::SyntheticField efield(eval_base.field);
    workload::Workload ework = workload::generate_workload(espec, eval_base.grid, efield);
    workload::materialize_positions(ework, eval_base.grid, /*seed=*/17);

    std::printf("\n# Parallel evaluation: %zu jobs, materialized positions, "
                "%u hardware threads\n\n",
                eval_jobs, std::thread::hardware_concurrency());
    std::printf("%-8s %-8s %12s %10s %12s %12s %10s %12s\n", "workers", "pooled",
                "wall(ms)", "speedup", "eval(ms)", "modeled(s)", "m.speedup",
                "samples");

    // Every repetition sweeps all rows, so host drift spreads over them.
    constexpr std::size_t kRepeats = 5;
    std::vector<EvalRow> rows;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}, std::size_t{8}})
        for (const bool pooled : {false, true})
            rows.push_back(EvalRow{.workers = workers, .pooled = pooled});
    bool digests_agree = true;
    for (std::size_t rep = 0; rep < kRepeats; ++rep) {
        for (std::size_t i = 0; i < rows.size(); ++i) {
            EvalRow& row = rows[i];
            core::Engine engine(parallel_eval_config(row.workers, row.pooled));
            const std::uint64_t t0 = util::wall_clock_ns();
            const core::RunReport r = engine.run(ework);
            const std::uint64_t t1 = util::wall_clock_ns();
            row.wall_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
            row.eval_ms.push_back(static_cast<double>(r.eval_wall_ns) / 1e6);
            if (rep == 0) {
                row.modeled_s = r.makespan.seconds();
                row.eval_tasks = r.eval_tasks;
                row.samples = r.samples_evaluated;
                row.digest = r.sample_digest;
            }
            // The trace legitimately differs across worker counts (more
            // modeled CPU channels change the schedule); the invariant is
            // pooled == inline at the SAME count, and every repeat == the first.
            const EvalRow& twin = rows[i - i % 2];
            if (r.sample_digest != row.digest || r.samples_evaluated != row.samples ||
                r.sample_digest != twin.digest || r.samples_evaluated != twin.samples)
                digests_agree = false;
        }
    }
    std::vector<std::vector<bench::JsonField>> json;
    for (const EvalRow& row : rows) {
        const double wall_ms = median(row.wall_ms);
        const double eval_ms = median(row.eval_ms);
        const double wall_speedup = median(rows[0].wall_ms) / wall_ms;
        const double modeled_speedup = rows[0].modeled_s / row.modeled_s;
        std::printf("%-8zu %-8s %12.1f %9.2fx %12.1f %12.3f %9.2fx %12llu\n", row.workers,
                    row.pooled ? "yes" : "no", wall_ms, wall_speedup, eval_ms, row.modeled_s,
                    modeled_speedup, static_cast<unsigned long long>(row.samples));
        json.push_back({
            bench::json_field("compute_workers", "%zu", row.workers),
            bench::json_field("pooled", "%s", row.pooled ? "true" : "false"),
            bench::json_field("wall_ms", "%.3f", wall_ms),
            bench::json_field("wall_speedup", "%.3f", wall_speedup),
            bench::json_field("eval_wall_ms", "%.3f", eval_ms),
            bench::json_field("modeled_makespan_s", "%.6f", row.modeled_s),
            bench::json_field("modeled_speedup", "%.3f", modeled_speedup),
            bench::json_field("eval_tasks", "%" PRIu64, row.eval_tasks),
            bench::json_field("samples", "%" PRIu64, row.samples),
            bench::json_field("digest", "\"0x%" PRIx64 "\"", row.digest),
        });
    }
    std::printf("\n(each pooled row must reproduce its inline twin's samples and digest;\n"
                " wall speedup is bounded by the machine's hardware threads)\n");
    if (!digests_agree)
        std::printf("WARNING: a digest diverged from its inline twin or its first run!\n");

    const std::vector<bench::JsonField> header = {
        bench::json_field("jobs", "%zu", eval_jobs),
        bench::json_field("hardware_threads", "%u", std::thread::hardware_concurrency()),
        bench::json_field("digests_agree", "%s", digests_agree ? "true" : "false"),
        bench::json_field("note", "\"%s\"",
                          "wall_ms and eval_wall_ms are medians of five runs per row, inline and "
                          "pooled runs alternating; digests_agree compares each pooled run to the "
                          "inline run at the same worker count, and every repeat to the first; "
                          "wall speedup is capped by hardware_threads — on machines with fewer "
                          "cores than workers the modeled speedup shows the schedule-level "
                          "scaling"),
    };
    return bench::write_json("BENCH_parallel_eval.json", "parallel_eval", header, json) ? 0 : 1;
}
