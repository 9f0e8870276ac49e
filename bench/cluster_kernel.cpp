// Cluster-kernel sweep — what one shared event kernel buys the cluster.
//
// The cluster kernel routes arrivals at event time, serves replicated atom
// reads from the chain member with the shallowest modeled disk queue, and
// absorbs node deaths in-line: the dead node's unfinished work contends for
// the survivors' modeled disks instead of being re-run after the fact.
//
// This harness sweeps workload skew x replication x node death at equal
// seeds and reports, per cell: cluster makespan, the share of demand reads
// served by a replica, failover accounting, and — for the death rows — the
// survivors' disk utilisation before vs after the death (from the per-node
// timeline, so a rise is visible in-kernel, not a post-hoc sum). Replication
// 1 is the baseline: with one copy per range no read can be diverted, so
// each paired row prints what k-way replication buys over it.
//
// Everything runs on the virtual clock (wall_clock_overhead off), so
// repeated runs are bit-identical — including BENCH_cluster_kernel.json,
// which carries no wall-clock or timestamp fields by design.
#include <cinttypes>
#include <cstdio>

#include "experiments.h"

int main(int argc, char** argv) {
    using namespace jaws;
    const std::size_t jobs = bench::jobs_from_args(argc, argv, 120);
    const std::vector<bench::ClusterRow> sweep =
        bench::cluster_kernel(jobs, std::thread::hardware_concurrency());

    std::printf("# Cluster kernel sweep: %zu nodes, %zu jobs, "
                "skew x replication x death\n\n",
                bench::kClusterNodes, jobs);
    std::printf("%-8s %-4s %-6s %12s %10s %9s %6s %6s %7s %7s %6s\n", "skew", "rep",
                "death", "makespan(s)", "tp(q/s)", "replica%", "disk%", "cpu%",
                "failov", "requeue", "lost");
    for (const bench::ClusterRow& row : sweep) {
        const core::ClusterReport& r = row.report;
        std::printf("%-8s %-4zu %-6s %12.1f %10.3f %8.2f%% "
                    "%5.1f%% %5.1f%% %7zu %7zu %6zu\n",
                    row.skew, row.replication, row.death ? "yes" : "no",
                    r.makespan.seconds(), r.total_throughput_qps,
                    100.0 * bench::replica_share(r), 100.0 * r.mean_disk_utilization,
                    100.0 * r.mean_cpu_utilization, r.failovers, r.requeued_queries,
                    r.lost_queries);
    }

    // Paired makespans: replication k against replication 1 (same workload,
    // no death) — the replica-aware-routing win under skew. Rows run rep 1
    // first within each skew, so `rep1` is always that skew's baseline.
    std::printf("\n%-8s %-4s %14s %14s %9s\n", "skew", "rep", "rep1(s)", "repk(s)",
                "delta");
    double rep1 = 0.0;
    for (const bench::ClusterRow& row : sweep) {
        if (row.death) continue;
        const double makespan = row.report.makespan.seconds();
        if (row.replication == 1) rep1 = makespan;
        std::printf("%-8s %-4zu %14.1f %14.1f %8.1f%%\n", row.skew, row.replication, rep1,
                    makespan, 100.0 * (makespan - rep1) / rep1);
    }
    std::printf("\n(replication >= 2 lets the kernel serve the hot node's reads "
                "from\n replicas; on the death rows the survivors' disk "
                "utilisation rises in-kernel)\n");

    std::vector<std::vector<bench::JsonField>> rows;
    for (const bench::ClusterRow& row : sweep) {
        const core::ClusterReport& r = row.report;
        rows.push_back({
            bench::json_field("skew", "\"%s\"", row.skew),
            bench::json_field("replication", "%zu", row.replication),
            bench::json_field("death", "%s", row.death ? "true" : "false"),
            bench::json_field("makespan_s", "%.3f", r.makespan.seconds()),
            bench::json_field("throughput_qps", "%.3f", r.total_throughput_qps),
            bench::json_field("replica_reads", "%" PRIu64, r.replica_reads),
            bench::json_field("replica_share", "%.6f", bench::replica_share(r)),
            bench::json_field("rerouted_arrivals", "%" PRIu64, r.rerouted_arrivals),
            bench::json_field("failovers", "%zu", r.failovers),
            bench::json_field("requeued", "%zu", r.requeued_queries),
            bench::json_field("lost", "%zu", r.lost_queries),
            bench::json_field("mean_disk_util", "%.6f", r.mean_disk_utilization),
            bench::json_field("survivor_util_before", "%.6f", row.survivor_util_before),
            bench::json_field("survivor_util_after", "%.6f", row.survivor_util_after),
        });
    }
    const std::vector<bench::JsonField> header = {
        bench::json_field("nodes", "%zu", bench::kClusterNodes),
        bench::json_field("jobs", "%zu", jobs),
        bench::json_field("death_node", "%zu", bench::kDeadNode),
        bench::json_field("death_s", "%g", bench::kDeathSeconds),
        bench::json_field("note", "\"%s\"",
                          "virtual-clock only: repeated runs at the same job count produce a "
                          "byte-identical file; replica_share is replica-served demand reads "
                          "over all demand reads; survivor_util_* are mean timeline disk "
                          "utilisation of surviving nodes before/after the death"),
    };
    return bench::write_json("BENCH_cluster_kernel.json", "cluster_kernel", header, rows) ? 0 : 1;
}
