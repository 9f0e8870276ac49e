// Tests for the multi-node cluster facade (core/cluster.h).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/cluster.h"
#include "core/engine.h"
#include "workload/generator.h"

namespace jaws::core {
namespace {

ClusterConfig small_cluster(std::size_t nodes) {
    ClusterConfig c;
    c.nodes = nodes;
    c.node.grid.voxels_per_side = 256;
    c.node.grid.atom_side = 32;
    c.node.grid.ghost = 2;
    c.node.grid.timesteps = 6;
    c.node.field.modes = 6;
    c.node.cache.capacity_atoms = 32;
    c.node.scheduler.kind = SchedulerKind::kJaws;
    return c;
}

workload::Workload small_workload(const ClusterConfig& config, std::size_t jobs = 30) {
    workload::WorkloadSpec spec;
    spec.jobs = jobs;
    spec.seed = 41;
    const field::SyntheticField field(config.node.field);
    return workload::generate_workload(spec, config.node.grid, field);
}

TEST(ClusterNodeOf, CoversAllNodesContiguously) {
    const std::uint64_t aps = 512;
    const std::size_t nodes = 4;
    std::size_t last = 0;
    std::vector<bool> seen(nodes, false);
    for (std::uint64_t m = 0; m < aps; ++m) {
        const std::size_t n = TurbulenceCluster::node_of(m, aps, nodes).value();
        ASSERT_LT(n, nodes);
        ASSERT_GE(n, last);  // monotone in Morton order (contiguous ranges)
        last = n;
        seen[n] = true;
    }
    for (const bool s : seen) EXPECT_TRUE(s);
}

TEST(ClusterNodeOf, SingleNodeTakesAll) {
    EXPECT_EQ(TurbulenceCluster::node_of(123, 4096, 1).value(), 0u);
}

TEST(ClusterNodeOf, RangeBoundariesWithIndivisibleAtomCount) {
    // 10 atoms over 4 nodes: ceil(10/4) = 3 per range, so the ranges are
    // [0,3) [3,6) [6,9) [9,10) — the last node's range is short, never empty.
    const std::uint64_t aps = 10;
    const std::size_t nodes = 4;
    const std::uint64_t per_node = (aps + nodes - 1) / nodes;
    ASSERT_EQ(per_node, 3u);
    for (std::size_t n = 0; n < nodes; ++n) {
        const std::uint64_t first = n * per_node;
        const std::uint64_t last = std::min<std::uint64_t>((n + 1) * per_node, aps) - 1;
        // First and last atom of each range land on that node.
        EXPECT_EQ(TurbulenceCluster::node_of(first, aps, nodes).value(), n);
        EXPECT_EQ(TurbulenceCluster::node_of(last, aps, nodes).value(), n);
        // One before the range belongs to the previous node.
        if (n > 0) {
            EXPECT_EQ(TurbulenceCluster::node_of(first - 1, aps, nodes).value(), n - 1);
        }
    }
    // Morton codes past atoms_per_step clamp to the last node rather than
    // running off the end of the node array.
    EXPECT_EQ(TurbulenceCluster::node_of(aps, aps, nodes).value(), nodes - 1);
    EXPECT_EQ(TurbulenceCluster::node_of(aps + 100, aps, nodes).value(), nodes - 1);
}

TEST(ClusterNodeOf, MoreNodesThanAtomsLeavesTrailingNodesEmpty) {
    // 2 atoms over 4 nodes: per_node = 1, atoms 0 and 1 land on nodes 0 and
    // 1; nodes 2 and 3 own no atom (and node_of never returns them).
    const std::uint64_t aps = 2;
    EXPECT_EQ(TurbulenceCluster::node_of(0, aps, 4).value(), 0u);
    EXPECT_EQ(TurbulenceCluster::node_of(1, aps, 4).value(), 1u);
    for (std::uint64_t m = 0; m < aps; ++m)
        EXPECT_LT(TurbulenceCluster::node_of(m, aps, 4).value(), 2u);
}

TEST(ClusterNodeOf, HandlesClustersAtTheNodeIndexCeiling) {
    // ISSUE 9 boundary: the old API returned size_t while callers stored
    // uint32; a cluster at the 32-bit ceiling is now an explicit, tested
    // edge instead of a silent truncation site. per_node = 1 here, so the
    // last atom lands on the last representable node index.
    const std::uint64_t n32 = std::numeric_limits<std::uint32_t>::max();
    EXPECT_EQ(TurbulenceCluster::node_of(n32 - 1, n32, n32).value(), n32 - 1);
    EXPECT_EQ(TurbulenceCluster::node_of(0, n32, n32).value(), 0u);
    // Morton codes past the step clamp to the last node, even at the rail.
    EXPECT_EQ(TurbulenceCluster::node_of(n32 + 100, n32, n32).value(), n32 - 1);
}

TEST(ClusterValidate, RejectsNodeCountsBeyondNodeIndex) {
    ClusterConfig c = small_cluster(2);
    c.nodes = (std::uint64_t{1} << 32) + 1;
    c.replication = 1;
    try {
        c.validate();
        FAIL() << "node counts beyond NodeIndex's 32-bit range must be rejected";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("NodeIndex"), std::string::npos);
    }
}

TEST(ClusterValidate, RejectsDuplicateNodeDownEvents) {
    ClusterConfig c = small_cluster(2);
    c.node.faults.node_down.push_back(
        storage::NodeDownEvent{util::NodeIndex{1}, util::SimTime::from_seconds(5.0)});
    c.node.faults.node_down.push_back(
        storage::NodeDownEvent{util::NodeIndex{1}, util::SimTime::from_seconds(9.0)});
    try {
        c.validate();
        FAIL() << "duplicate node_down events must be rejected";
    } catch (const std::invalid_argument& e) {
        // The message names the offending field and node.
        EXPECT_NE(std::string(e.what()).find("node.faults.node_down"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("node 1"), std::string::npos);
    }
}

TEST(ClusterValidate, RejectsNodeDownAtTickZero) {
    ClusterConfig c = small_cluster(2);
    c.node.faults.node_down.push_back(storage::NodeDownEvent{util::NodeIndex{0}, util::SimTime::zero()});
    try {
        c.validate();
        FAIL() << "a node-down at tick 0 must be rejected";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("node.faults.node_down"),
                  std::string::npos);
    }
}

TEST(ClusterValidate, AcceptsDistinctDeathsOnDistinctNodes) {
    ClusterConfig c = small_cluster(3);
    c.replication = 2;
    c.node.faults.node_down.push_back(
        storage::NodeDownEvent{util::NodeIndex{0}, util::SimTime::from_seconds(5.0)});
    c.node.faults.node_down.push_back(
        storage::NodeDownEvent{util::NodeIndex{2}, util::SimTime::from_seconds(7.0)});
    EXPECT_NO_THROW(c.validate());
}

TEST(ClusterPartition, PreservesEveryAtomRequest) {
    const ClusterConfig config = small_cluster(4);
    const workload::Workload w = small_workload(config);
    TurbulenceCluster cluster(config);
    const auto parts = cluster.partition(w);
    ASSERT_EQ(parts.size(), 4u);

    std::uint64_t original_positions = 0, split_positions = 0;
    std::size_t original_atoms = 0, split_atoms = 0;
    for (const auto& job : w.jobs)
        for (const auto& q : job.queries) {
            original_positions += q.total_positions();
            original_atoms += q.footprint.size();
        }
    for (const auto& part : parts)
        for (const auto& job : part.jobs)
            for (const auto& q : job.queries) {
                split_positions += q.total_positions();
                split_atoms += q.footprint.size();
            }
    EXPECT_EQ(split_positions, original_positions);
    EXPECT_EQ(split_atoms, original_atoms);
}

TEST(ClusterPartition, EachPartOwnsOnlyItsAtoms) {
    const ClusterConfig config = small_cluster(4);
    const workload::Workload w = small_workload(config);
    TurbulenceCluster cluster(config);
    const auto parts = cluster.partition(w);
    const std::uint64_t aps = config.node.grid.atoms_per_step();
    for (std::size_t n = 0; n < parts.size(); ++n)
        for (const auto& job : parts[n].jobs)
            for (const auto& q : job.queries)
                for (const auto& req : q.footprint)
                    ASSERT_EQ(TurbulenceCluster::node_of(req.atom.morton, aps, 4).value(), n);
}

TEST(ClusterPartition, SequencesStayContiguous) {
    const ClusterConfig config = small_cluster(4);
    const workload::Workload w = small_workload(config);
    TurbulenceCluster cluster(config);
    for (const auto& part : cluster.partition(w))
        for (const auto& job : part.jobs) {
            ASSERT_FALSE(job.queries.empty());
            for (std::size_t i = 0; i < job.queries.size(); ++i)
                ASSERT_EQ(job.queries[i].seq_in_job, i);
        }
}

TEST(ClusterRun, AggregatesAllNodes) {
    const ClusterConfig config = small_cluster(4);
    const workload::Workload w = small_workload(config);
    TurbulenceCluster cluster(config);
    const ClusterReport report = cluster.run(w);
    EXPECT_EQ(report.per_node.size(), 4u);
    EXPECT_GT(report.total_throughput_qps, 0.0);
    EXPECT_GT(report.makespan.micros, 0);
    std::size_t parts = 0;
    for (const auto& r : report.per_node) parts += r.queries;
    EXPECT_GT(parts, 0u);
    EXPECT_GE(report.cache_hit_rate, 0.0);
    EXPECT_LE(report.cache_hit_rate, 1.0);
}

TEST(ClusterRun, SingleNodeMatchesEngine) {
    ClusterConfig config = small_cluster(1);
    const workload::Workload w = small_workload(config, 15);
    TurbulenceCluster cluster(config);
    const ClusterReport cr = cluster.run(w);
    Engine engine(config.node);
    const RunReport er = engine.run(w);
    ASSERT_EQ(cr.per_node.size(), 1u);
    EXPECT_EQ(cr.per_node[0].queries, er.queries);
    EXPECT_EQ(cr.per_node[0].atom_reads, er.atom_reads);
    EXPECT_EQ(cr.makespan, er.makespan);
}

TEST(ClusterRun, MoreNodesFinishSooner) {
    ClusterConfig one = small_cluster(1);
    ClusterConfig four = small_cluster(4);
    const workload::Workload w = small_workload(one, 40);
    const ClusterReport r1 = TurbulenceCluster(one).run(w);
    const ClusterReport r4 = TurbulenceCluster(four).run(w);
    // Four nodes each serve a quarter of the atoms: the slowest node's
    // makespan must not exceed the single node's.
    EXPECT_LE(r4.makespan.micros, r1.makespan.micros);
}

}  // namespace
}  // namespace jaws::core
