// Cluster replay — the multi-node architecture of Fig. 7.
//
// Generates a trace, saves it to CSV (the shape of the production SQL log),
// reloads it, runs the job-identification heuristics against the ground
// truth, and finally replays the workload on a spatially partitioned
// Turbulence cluster where every node runs its own JAWS instance in
// parallel. Prints identification accuracy, per-node utilisation and the
// aggregate cluster report.
//
//   $ ./cluster_replay [nodes] [jobs]
#include <cstdio>
#include <cstdlib>

#include "core/cluster.h"
#include "workload/generator.h"
#include "workload/job_identifier.h"
#include "workload/trace.h"

int main(int argc, char** argv) {
    using namespace jaws;
    const std::size_t nodes = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 4;
    const std::size_t jobs = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 150;

    core::ClusterConfig config;
    config.nodes = nodes;
    config.node.scheduler.kind = core::SchedulerKind::kJaws;
    const field::SyntheticField field(config.node.field);

    workload::WorkloadSpec wspec;
    wspec.jobs = jobs;
    wspec.seed = 2024;
    const workload::Workload workload =
        workload::generate_workload(wspec, config.node.grid, field);
    std::printf("trace: %zu jobs, %zu queries\n", workload.jobs.size(),
                workload.total_queries());

    // --- 1. the SQL-log view: flatten, round-trip through CSV ---
    const auto records = workload::flatten(workload);
    const std::string path = "/tmp/jaws_cluster_replay_trace.csv";
    workload::save_csv(path, records);
    const auto reloaded = workload::load_csv(path);
    std::printf("trace CSV round trip: %zu records -> %s\n", reloaded.size(), path.c_str());

    // --- 2. job identification, as the production scheduler must do ---
    const auto labels = workload::identify_jobs(reloaded);
    const auto quality = workload::evaluate_identification(reloaded, labels);
    std::printf("job identification: precision %.2f, recall %.2f, F1 %.2f, "
                "%.0f%% of jobs exact\n\n",
                quality.pair_precision, quality.pair_recall, quality.f1(),
                100.0 * quality.exact_jobs);

    // --- 3. the partitioned cluster replay ---
    core::TurbulenceCluster cluster(config);
    const core::ClusterReport report = cluster.run(workload);

    std::printf("%6s %10s %12s %12s %8s\n", "node", "queries", "tp(q/s)", "rt_mean(s)",
                "hit%");
    for (std::size_t n = 0; n < report.per_node.size(); ++n) {
        const core::RunReport& r = report.per_node[n];
        std::printf("%6zu %10zu %12.3f %12.1f %7.1f%%\n", n, r.queries,
                    r.busy_throughput_qps, r.mean_response_ms / 1000.0,
                    100.0 * r.cache.hit_rate());
    }
    std::printf("\ncluster: %.3f query-parts/s aggregate, makespan %.0f s, "
                "hit rate %.1f%%\n",
                report.total_throughput_qps, report.makespan.seconds(),
                100.0 * report.cache_hit_rate);
    std::puts("(spatial partitioning keeps each node's share Morton-contiguous, so\n"
              " per-node batches remain near-sequential on that node's disk)");

    // --- 4. the same replay with a node death and replicated ranges ---
    if (nodes >= 2) {
        core::ClusterConfig faulty = config;
        faulty.replication = 2;
        faulty.node.faults.node_down.push_back(
            storage::NodeDownEvent{util::NodeIndex{0}, util::SimTime::from_seconds(30.0)});
        core::TurbulenceCluster degraded_cluster(faulty);
        const core::ClusterReport degraded = degraded_cluster.run(workload);
        std::printf("\nwith node 0 dying at t=30s (replication 2): makespan %.0f s "
                    "(+%.0f%%), %zu failover(s), %zu query-parts requeued, %zu lost\n",
                    degraded.makespan.seconds(),
                    100.0 * (degraded.makespan.seconds() / report.makespan.seconds() - 1.0),
                    degraded.failovers, degraded.requeued_queries, degraded.lost_queries);
        std::puts("(the dead node's Morton range survives on its chained-declustering\n"
                  " replica, which takes over the unfinished tail at the death instant)");
    }
    return 0;
}
