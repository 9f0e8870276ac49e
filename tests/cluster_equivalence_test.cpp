// Cluster kernel equivalence harness (core/cluster.h).
//
// The contract under test: at replication = 1 with no node deaths, the
// cluster kernel (one shared EventQueue, route-time arrivals, replica-aware
// reads) produces per-node reports equal, field for field, to those of N
// standalone engines, each running its partition() share — the cross-node
// tie-break (time, priority, node, insertion) degenerates to each node's
// private order, and self-routing is the identity — with and without
// hedging, heavy-tailed disks and injected read faults. The golden row pins
// the shared trace so a silent divergence fails loudly. Beyond the pinned
// regime, the suite covers what only the shared kernel can do:
// replica-served reads and in-kernel failover into survivors' resources.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/engine.h"
#include "core/metrics.h"
#include "workload/generator.h"

namespace jaws::core {
namespace {

// --- materialised fixture: real payloads, real digests --------------------

ClusterConfig fixture_cluster(std::size_t nodes) {
    ClusterConfig c;
    c.nodes = nodes;
    c.node.grid.voxels_per_side = 128;
    c.node.grid.atom_side = 32;
    c.node.grid.ghost = 4;
    c.node.grid.timesteps = 4;
    c.node.field.modes = 4;
    c.node.cache.capacity_atoms = 16;
    c.node.run_length = 25;
    c.node.io_depth = 2;
    c.node.compute_workers = 2;
    c.node.materialize_data = true;
    c.node.scheduler.kind = SchedulerKind::kJaws;
    return c;
}

/// The same fixture with the tail machinery in play: heavy-tailed disks,
/// transient read errors and stuck reads, with hedging on — so the hedge,
/// retry and stall paths are driven through the shared kernel too.
ClusterConfig faulty_fixture_cluster(std::size_t nodes) {
    ClusterConfig c = fixture_cluster(nodes);
    c.node.hedge.enabled = true;
    c.node.disk.heavy_tail.rate = 0.2;
    c.node.faults.transient_error_rate = 0.05;
    c.node.faults.stuck_read_rate = 0.02;
    return c;
}

workload::Workload fixture_workload(const ClusterConfig& c, std::size_t jobs = 8) {
    workload::WorkloadSpec spec;
    spec.jobs = jobs;
    spec.seed = 11;
    spec.max_positions = 600;  // bound the real interpolation work per query
    const field::SyntheticField field(c.node.field);
    workload::Workload w = workload::generate_workload(spec, c.node.grid, field);
    workload::materialize_positions(w, c.node.grid, /*seed=*/23);
    return w;
}

TEST(ClusterEquivalence, MatchesStandaloneEnginesAtReplicationOne) {
    for (const bool faulty : {false, true})
    for (const std::size_t nodes : {std::size_t{1}, std::size_t{3}}) {
        SCOPED_TRACE(std::string(faulty ? "faulty " : "") + "nodes=" +
                     std::to_string(nodes));
        const ClusterConfig cfg =
            faulty ? faulty_fixture_cluster(nodes) : fixture_cluster(nodes);
        const workload::Workload w = fixture_workload(cfg);
        const TurbulenceCluster cluster(cfg);
        const ClusterReport r = cluster.run(w);
        const std::vector<workload::Workload> parts = cluster.partition(w);

        ASSERT_EQ(r.per_node.size(), nodes);
        std::size_t projected = 0;
        util::SimTime slowest;
        std::uint64_t hedges = 0, retries = 0, stuck = 0;
        for (std::size_t n = 0; n < nodes; ++n) {
            SCOPED_TRACE("node=" + std::to_string(n));
            const RunReport reference = Engine(cfg.node).run(parts[n]);
            EXPECT_TRUE(r.per_node[n] == reference);
            projected += parts[n].total_queries();
            slowest = std::max(slowest, reference.makespan);
            hedges += reference.hedges_issued;
            retries += reference.read_retries;
            stuck += reference.faults.stuck_reads;
        }
        EXPECT_EQ(r.makespan.raw_micros(), slowest.raw_micros());
        if (faulty) {
            // Not vacuous: the reference runs really hedged, retried and
            // stalled.
            EXPECT_GT(hedges, 0u);
            EXPECT_GT(retries, 0u);
            EXPECT_GT(stuck, 0u);
        }

        // Routing accounting: everything routed to its owner, nothing moved
        // or lost, no cross-node reads at replication 1.
        EXPECT_EQ(r.routed_queries, projected);
        EXPECT_EQ(r.rerouted_arrivals, 0u);
        EXPECT_EQ(r.replica_reads, 0u);
        EXPECT_EQ(r.lost_queries, 0u);
    }
}

// Golden-pinned trace of the 3-node fixture, captured when the shared
// kernel was introduced (it agreed bit-for-bit with per-node engines at
// capture time, and the test above keeps proving it does). If this row
// breaks, the virtual schedule, the partition split or the reduction order
// changed.
TEST(ClusterEquivalence, GoldenPinnedThreeNodeTrace) {
    const ClusterConfig config = fixture_cluster(3);
    const workload::Workload w = fixture_workload(config);
    const ClusterReport r = TurbulenceCluster(config).run(w);

    std::uint64_t samples = 0;
    std::uint64_t digest = kFnvOffset;
    for (const RunReport& n : r.per_node) {
        samples += n.samples_evaluated;
        digest = fnv1a64(digest, &n.sample_digest, sizeof(n.sample_digest));
    }
    EXPECT_EQ(r.makespan.raw_micros(), INT64_C(916033023));
    EXPECT_EQ(samples, UINT64_C(307798));
    EXPECT_EQ(digest, UINT64_C(0x6d1c2f7bf5529d87));
}

// --- descriptor-only fixtures: routing and failover -----------------------

ClusterConfig tiny_cluster(std::size_t nodes, std::size_t replication) {
    ClusterConfig c;
    c.nodes = nodes;
    c.replication = replication;
    c.node.grid.voxels_per_side = 64;
    c.node.grid.atom_side = 32;  // 2 atoms per side -> 8 atoms per step
    c.node.grid.ghost = 2;
    c.node.grid.timesteps = 2;
    c.node.field.modes = 4;
    c.node.cache.capacity_atoms = 2;
    return c;
}

workload::Job single_query_job(workload::QueryId qid, std::uint64_t morton,
                               util::SimTime arrival, std::uint32_t step = 0) {
    workload::Job job;
    job.id = qid;
    job.type = workload::JobType::kBatched;
    job.arrival = arrival;
    workload::Query q;
    q.id = qid;
    q.job = job.id;
    q.timestep = step;
    q.footprint.push_back(workload::AtomRequest{{step, morton}, 5});
    job.queries.push_back(q);
    return job;
}

std::size_t completed_parts(const ClusterReport& r) {
    std::size_t total = 0;
    for (const auto& n : r.per_node) total += n.queries;
    return total;
}

TEST(ClusterReplicaReads, ReplicatedReadsSpreadOntoTheChain) {
    // Two nodes, replication 2: every atom is readable on both. Jobs hammer
    // node 0's range (morton 0..3) in quick succession, so node 0's modeled
    // disk queue is deeper than node 1's when reads are routed — the kernel
    // serves part of them from the replica. io_depth 4 keeps several reads
    // in flight per node — with
    // a pipeline window of 1 the owner's disk is idle at every route instant
    // and the chain never diverts; the 1 ms arrival spacing builds the
    // owner-side backlog the divert margin requires.
    ClusterConfig config = tiny_cluster(2, 2);
    config.node.io_depth = 4;
    workload::Workload w;
    for (workload::QueryId i = 1; i <= 60; ++i)
        w.jobs.push_back(single_query_job(
            i, i % 4, util::SimTime::from_millis(static_cast<double>(i) * 1.0)));
    const ClusterReport r = TurbulenceCluster(config).run(w);
    EXPECT_EQ(completed_parts(r), 60u);
    EXPECT_EQ(r.routed_queries, 60u);
    EXPECT_EQ(r.lost_queries, 0u);
    EXPECT_GT(r.replica_reads, 0u);  // replication acted as load balancing
    std::uint64_t per_node_replica = 0;
    for (const auto& n : r.per_node) per_node_replica += n.replica_reads;
    EXPECT_EQ(r.replica_reads, per_node_replica);
}

TEST(ClusterReplicaReads, UnifiedRunsAreBitIdenticalAcrossRepeats) {
    ClusterConfig config = tiny_cluster(2, 2);
    config.node.io_depth = 4;  // keep replica routing active (see above)
    workload::Workload w;
    for (workload::QueryId i = 1; i <= 40; ++i)
        w.jobs.push_back(single_query_job(
            i, i % 8, util::SimTime::from_millis(static_cast<double>(i) * 2.0)));
    const ClusterReport a = TurbulenceCluster(config).run(w);
    const ClusterReport b = TurbulenceCluster(config).run(w);
    EXPECT_TRUE(a == b);
}

TEST(ClusterFailover, InKernelFailoverAbsorbsTheDeadNodesWork) {
    // Node 0 dies a third of the way through the arrival schedule. Its
    // unfinished share is re-injected into node 1 *inside the kernel*,
    // where it contends with node 1's own queue.
    ClusterConfig config = tiny_cluster(2, 2);
    config.node.faults.node_down.push_back(
        storage::NodeDownEvent{util::NodeIndex{0}, util::SimTime::from_millis(300.0)});
    workload::Workload w;
    for (workload::QueryId i = 1; i <= 24; ++i)
        w.jobs.push_back(single_query_job(
            i, i % 8, util::SimTime::from_millis(static_cast<double>(i) * 40.0)));
    TurbulenceCluster cluster(config);
    const ClusterReport r = cluster.run(w);

    EXPECT_EQ(r.dead_nodes, 1u);
    EXPECT_GE(r.failovers, 1u);
    EXPECT_EQ(r.lost_queries, 0u);
    EXPECT_GT(r.requeued_queries, 0u);
    EXPECT_EQ(completed_parts(r), 24u);

    // The survivor completed strictly more than its own partition share.
    const auto parts = cluster.partition(w);
    EXPECT_GT(r.per_node[1].queries, parts[1].total_queries());
    // And the dead node stopped short.
    EXPECT_LT(r.per_node[0].queries, parts[0].total_queries());
}

TEST(ClusterFailover, NoSurvivingReplicaLosesTheTailInKernel) {
    ClusterConfig config = tiny_cluster(2, 1);  // no redundancy
    config.node.faults.node_down.push_back(
        storage::NodeDownEvent{util::NodeIndex{0}, util::SimTime::from_millis(300.0)});
    workload::Workload w;
    for (workload::QueryId i = 1; i <= 24; ++i)
        w.jobs.push_back(single_query_job(
            i, i % 8, util::SimTime::from_millis(static_cast<double>(i) * 40.0)));
    const ClusterReport r = TurbulenceCluster(config).run(w);
    EXPECT_EQ(r.dead_nodes, 1u);
    EXPECT_EQ(r.failovers, 0u);
    EXPECT_GT(r.lost_queries, 0u);
    EXPECT_EQ(completed_parts(r) + r.lost_queries, 24u);
}

TEST(ClusterFailover, SurvivorsDiskUtilizationRisesAfterTheDeath) {
    // The acceptance check on in-kernel failover: the survivor's *own*
    // timeline shows its disk working harder after the death than before —
    // the dead node's reads really run on the survivor's modeled channels,
    // not in a post-hoc summed report.
    ClusterConfig config = tiny_cluster(2, 2);
    config.node.timeline_window_s = 0.1;
    const util::SimTime death = util::SimTime::from_millis(300.0);
    config.node.faults.node_down.push_back(storage::NodeDownEvent{util::NodeIndex{0}, death});
    workload::Workload w;
    for (workload::QueryId i = 1; i <= 48; ++i)
        w.jobs.push_back(single_query_job(
            i, i % 4, util::SimTime::from_millis(static_cast<double>(i) * 20.0)));
    const ClusterReport r = TurbulenceCluster(config).run(w);
    ASSERT_EQ(r.lost_queries, 0u);
    ASSERT_GT(r.requeued_queries, 0u);

    double before = 0.0, after = 0.0;
    std::size_t n_before = 0, n_after = 0;
    for (const TimelinePoint& tp : r.per_node[1].timeline) {
        if (tp.window_end <= death) {
            before += tp.disk_utilization;
            ++n_before;
        } else {
            after += tp.disk_utilization;
            ++n_after;
        }
    }
    ASSERT_GT(n_before, 0u);
    ASSERT_GT(n_after, 0u);
    EXPECT_GT(after / static_cast<double>(n_after),
              before / static_cast<double>(n_before));
}

TEST(ClusterEquivalence, MaterializedRunRejectsKernelsWiderThanGhost) {
    // With real data an interpolation kernel must fit inside the atom's
    // ghost region (descriptor-only runs model the spill as support reads;
    // the data path cannot). An order-8 kernel against ghost=2 must throw
    // from workload intake instead of reading out of bounds inside the
    // interpolation kernel.
    ClusterConfig config = tiny_cluster(2, 1);
    config.node.materialize_data = true;
    workload::Workload bad;
    bad.jobs.push_back(single_query_job(1, 0, util::SimTime::zero()));
    bad.jobs.back().queries.front().order = field::InterpOrder::kLag8;
    workload::materialize_positions(bad, config.node.grid, /*seed=*/23);
    EXPECT_THROW(TurbulenceCluster(config).run(bad), std::invalid_argument);
    // The same workload passes once the grid carries enough ghost voxels.
    ClusterConfig ok = tiny_cluster(2, 1);
    ok.node.grid.ghost = 4;
    ok.node.materialize_data = true;
    workload::Workload w;
    w.jobs.push_back(single_query_job(1, 0, util::SimTime::zero()));
    w.jobs.back().queries.front().order = field::InterpOrder::kLag8;
    workload::materialize_positions(w, ok.node.grid, /*seed=*/23);
    const ClusterReport r = TurbulenceCluster(ok).run(w);
    EXPECT_EQ(completed_parts(r), 1u);
}

}  // namespace
}  // namespace jaws::core
