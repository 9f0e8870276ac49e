// Tests for the multi-node cluster facade (core/cluster.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/cluster.h"
#include "core/engine.h"
#include "layout_cases.h"
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
    EXPECT_GT(report.makespan.raw_micros(), 0);
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
    EXPECT_TRUE(cr.per_node[0] == er);
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
    EXPECT_LE(r4.makespan.raw_micros(), r1.makespan.raw_micros());
}

TEST(ClusterPartition, PartsAreExactSizeAndKeepTheQuery) {
    // A hand-built two-query job: the first query touches all four nodes'
    // ranges (128 atoms each), the second only nodes 0 and 3.
    const ClusterConfig config = small_cluster(4);
    const TurbulenceCluster cluster(config);
    workload::Workload w;
    workload::Job& job = w.jobs.emplace_back();
    job.id = 9;
    job.user = 4;
    job.type = workload::JobType::kBatched;
    job.arrival = util::SimTime::from_seconds(2.5);
    const auto add_query = [&](workload::QueryId id, std::vector<std::uint64_t> codes) {
        workload::Query& q = job.queries.emplace_back();
        q.id = id;
        q.job = job.id;
        q.seq_in_job = static_cast<std::uint32_t>(job.queries.size() - 1);
        q.user = job.user;
        q.timestep = 3;
        q.kind = storage::ComputeKind::kPressure;
        q.order = field::InterpOrder::kLag8;
        q.think_time = util::SimTime::from_millis(12.5);
        for (const std::uint64_t code : codes)
            q.footprint.push_back({storage::AtomId{q.timestep, code}, 2 + code % 5});
    };
    add_query(31, {5, 6, 127, 128, 200, 260, 300, 384, 511});
    add_query(32, {0, 17, 400, 450});
    workload::materialize_positions(w, config.node.grid, 5);
    const std::uint64_t aps = config.node.grid.atoms_per_step();

    const auto check = [&](const std::vector<const workload::Job*>& parts) {
        ASSERT_EQ(parts.size(), 4u);
        for (std::size_t qi = 0; qi < job.queries.size(); ++qi) {
            const workload::Query& q = job.queries[qi];
            std::vector<workload::AtomRequest> joined;
            for (std::size_t n = 0; n < parts.size(); ++n) {
                const auto part = std::find_if(
                    parts[n]->queries.begin(), parts[n]->queries.end(),
                    [&](const workload::Query& p) { return p.id == q.id; });
                if (part == parts[n]->queries.end()) continue;
                EXPECT_EQ(part->seq_in_job, part - parts[n]->queries.begin());
                EXPECT_EQ(part->footprint.capacity(), part->footprint.size());
                EXPECT_EQ(part->positions.capacity(), part->positions.size());
                joined.insert(joined.end(), part->footprint.begin(), part->footprint.end());
                // Positions follow their owner, in the query's order.
                std::vector<field::Vec3> owned;
                for (const field::Vec3& p : q.positions)
                    if (TurbulenceCluster::node_of(config.node.grid.atom_morton_of(p), aps, 4)
                            .value() == n)
                        owned.push_back(p);
                ASSERT_EQ(part->positions.size(), owned.size());
                for (std::size_t i = 0; i < owned.size(); ++i) {
                    EXPECT_EQ(part->positions[i].x, owned[i].x);
                    EXPECT_EQ(part->positions[i].y, owned[i].y);
                    EXPECT_EQ(part->positions[i].z, owned[i].z);
                }
                // Every other field is the query's.
                EXPECT_EQ(part->job, q.job);
                EXPECT_EQ(part->user, q.user);
                EXPECT_EQ(part->timestep, q.timestep);
                EXPECT_EQ(part->kind, q.kind);
                EXPECT_EQ(part->order, q.order);
                EXPECT_EQ(part->think_time, q.think_time);
            }
            ASSERT_EQ(joined.size(), q.footprint.size());
            for (std::size_t i = 0; i < joined.size(); ++i) {
                EXPECT_EQ(joined[i].atom, q.footprint[i].atom);
                EXPECT_EQ(joined[i].positions, q.footprint[i].positions);
            }
        }
        for (const workload::Job* part : parts) {
            EXPECT_EQ(part->id, job.id);
            EXPECT_EQ(part->user, job.user);
            EXPECT_EQ(part->type, job.type);
            EXPECT_EQ(part->arrival, job.arrival);
        }
        EXPECT_EQ(parts[0]->queries.size(), 2u);
        EXPECT_EQ(parts[1]->queries.size(), 1u);
        EXPECT_EQ(parts[2]->queries.size(), 1u);
        EXPECT_EQ(parts[3]->queries.size(), 2u);
    };
    const std::vector<workload::Job> projected = cluster.project(job);
    check({&projected[0], &projected[1], &projected[2], &projected[3]});
    const std::vector<workload::Workload> partitioned = cluster.partition(w);
    ASSERT_EQ(partitioned.size(), 4u);
    std::vector<const workload::Job*> jobs;
    for (const workload::Workload& part : partitioned) {
        ASSERT_EQ(part.jobs.size(), 1u);
        jobs.push_back(&part.jobs.front());
    }
    check(jobs);
}

TEST(ClusterRun, RejectsJobsOutOfArrivalOrder) {
    const ClusterConfig config = small_cluster(4);
    workload::Workload w = small_workload(config, 6);
    std::reverse(w.jobs.begin(), w.jobs.end());
    try {
        TurbulenceCluster(config).run(w);
        ADD_FAILURE() << "ran a workload whose jobs are out of arrival order";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("TurbulenceCluster::run: job " + std::to_string(w.jobs[1].id) +
                            " arrives"),
                  std::string::npos)
            << what;
    }
    // Equal arrivals are in order.
    std::reverse(w.jobs.begin(), w.jobs.end());
    w.jobs[1].arrival = w.jobs[0].arrival;
    std::size_t parts = 0;
    for (const RunReport& r : TurbulenceCluster(config).run(w).per_node) parts += r.queries;
    EXPECT_GT(parts, 0u);
}

TEST(ClusterRun, RejectsQueriesThatTouchNoAtom) {
    // Projection gives a query that touches no atom no part on any node, so
    // it would vanish from the run: submitted, never routed nor completed.
    const ClusterConfig config = small_cluster(2);
    workload::Workload w = small_workload(config, 6);
    workload::Job& job = w.jobs[2];
    job.queries.back().footprint.clear();
    const workload::QueryId id = job.queries.back().id;
    try {
        TurbulenceCluster(config).run(w);
        ADD_FAILURE() << "ran a workload with a query that touches no atom";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("TurbulenceCluster::run: query " + std::to_string(id) +
                            " of job " + std::to_string(job.id) + " touches no atom"),
                  std::string::npos)
            << what;
    }
}

TEST(ClusterRun, RejectsQueriesOutOfLayout) {
    // Checked before projection, which slices each entry's positions.
    ClusterConfig config = small_cluster(4);
    config.node.materialize_data = true;
    // The well-formed query's parts run on nodes 0 and 1, and every position
    // is interpolated once.
    const ClusterReport report =
        TurbulenceCluster(config).run(layout_cases::well_formed(config.node.grid));
    std::uint64_t samples = 0;
    for (const RunReport& r : report.per_node) samples += r.samples_evaluated;
    EXPECT_EQ(samples, 12u);
    EXPECT_EQ(report.per_node[0].queries + report.per_node[1].queries, 2u);
    for (const layout_cases::Case& c : layout_cases::malformed(config.node.grid)) {
        SCOPED_TRACE(c.rule);
        try {
            TurbulenceCluster(config).run(c.workload);
            ADD_FAILURE() << "ran a query with " << c.rule;
        } catch (const std::invalid_argument& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("TurbulenceCluster::run: query 50 of job 5 " + c.message),
                      std::string::npos)
                << what;
        }
    }
}

}  // namespace
}  // namespace jaws::core
