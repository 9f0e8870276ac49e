// Translation invariance: a run does not depend on where its trace sits on
// the virtual clock. Shifting every arrival (and every node-death instant)
// by the same delta moves every query's visibility and completion by exactly
// that delta and leaves every report field unchanged: the reports compare
// equal whole, and so do the outcomes once moved back by the delta.
// Covers the five Fig. 10 systems on one node, and a saturated cluster whose
// hot node dies mid-run (failover, requeued parts, hedged reads).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "experiments.h"

namespace jaws::core {
namespace {

constexpr std::size_t kJobs = 40;

/// The shifts every run must be invariant under: back past the first
/// arrival, a fractional offset, and days ahead.
std::vector<util::SimTime> shifts() {
    return {util::SimTime::from_seconds(-3.0), util::SimTime::from_seconds(12.3),
            util::SimTime::from_seconds(11.4 * 86400.0)};
}

workload::Workload shifted(workload::Workload w, util::SimTime delta) {
    for (workload::Job& job : w.jobs) job.arrival = job.arrival + delta;
    return w;
}

/// `outcomes` with every visibility and completion moved back by `delta`.
std::vector<QueryOutcome> moved_back(std::vector<QueryOutcome> outcomes, util::SimTime delta) {
    for (QueryOutcome& o : outcomes) {
        o.visible -= delta;
        o.completed -= delta;
    }
    return outcomes;
}

TEST(Translation, SingleNodeRunsMoveWithTheirArrivals) {
    EngineConfig base = bench::base_config();
    base.cache.wall_clock_overhead = false;
    const workload::Workload trace = bench::base_workload(kJobs, base);
    const std::pair<const char*, SchedulerSpec> systems[] = {
        {"NoShare", bench::noshare_spec()},      {"LifeRaft_1", bench::liferaft_spec(1.0)},
        {"LifeRaft_2", bench::liferaft_spec(0.0)}, {"JAWS_1", bench::jaws1_spec()},
        {"JAWS_2", bench::jaws2_spec()}};
    for (const auto& [name, spec] : systems) {
        EngineConfig config = base;
        config.scheduler = spec;
        Engine reference(config);
        const RunReport want = reference.run(trace);
        ASSERT_EQ(want.queries, trace.total_queries()) << name;
        for (const util::SimTime delta : shifts()) {
            SCOPED_TRACE(std::string(name) + " shifted by " + util::to_string(delta));
            Engine engine(config);
            const RunReport got = engine.run(shifted(trace, delta));
            EXPECT_TRUE(got == want);
            EXPECT_TRUE(moved_back(engine.outcomes(), delta) == reference.outcomes());
        }
    }
}

constexpr std::size_t kNodes = 4;
constexpr std::uint32_t kHotNode = 1;

/// Four nodes, replication 2, JAWS_2 with heavy-tailed disks and adaptive
/// hedging; the hot node dies at `death`.
ClusterConfig saturated_cluster(util::SimTime death) {
    ClusterConfig c;
    c.node = bench::base_config();
    c.node.cache.wall_clock_overhead = false;
    c.node.scheduler = bench::jaws2_spec();
    c.node.io_depth = 4;
    c.node.compute_workers = 4;
    c.node.disk.heavy_tail.rate = 0.05;
    c.node.disk.heavy_tail.lognormal_mu = 2.0;
    c.node.disk.heavy_tail.lognormal_sigma = 0.75;
    c.node.disk.heavy_tail.seed = 0x7A11;
    c.node.hedge.enabled = true;
    c.node.hedge.trigger_ewma_multiplier = 3.0;
    c.node.hedge.max_outstanding = 4;
    c.node.hedge.budget_per_query = 2;
    c.nodes = kNodes;
    c.replication = 2;
    c.node.faults.node_down.push_back(storage::NodeDownEvent{util::NodeIndex{kHotNode}, death});
    return c;
}

/// The trace at 16x speed-up with every atom folded onto the hot node's
/// range, so that node's disk is the bottleneck and its death moves a deep
/// backlog.
workload::Workload hot_node_trace(const EngineConfig& node) {
    workload::Workload w = bench::base_workload(kJobs, node);
    workload::apply_speedup(w, 16.0);
    const std::uint64_t per = (node.grid.atoms_per_step() + kNodes - 1) / kNodes;
    const std::uint64_t lo = per * kHotNode;
    for (workload::Job& job : w.jobs)
        for (workload::Query& q : job.queries) {
            std::map<storage::AtomId, std::uint64_t> folded;
            for (const workload::AtomRequest& req : q.footprint)
                folded[{req.atom.timestep, lo + req.atom.morton % per}] += req.positions;
            q.footprint.clear();
            for (const auto& [atom, positions] : folded) q.footprint.push_back({atom, positions});
        }
    return w;
}

TEST(Translation, SaturatedClusterMovesWithItsArrivalsAndDeath) {
    const util::SimTime death_after = util::SimTime::from_seconds(20.0);
    const workload::Workload trace = hot_node_trace(saturated_cluster(death_after).node);
    const util::SimTime death = trace.jobs.front().arrival + death_after;
    const ClusterReport want = TurbulenceCluster(saturated_cluster(death)).run(trace);
    // The scenario must keep its coverage: a failover that requeues parts,
    // and hedged reads.
    ASSERT_EQ(want.dead_nodes, 1u);
    ASSERT_GT(want.failovers, 0u);
    ASSERT_GT(want.requeued_queries, 0u);
    ASSERT_GT(want.hedges_issued, 0u);
    for (const util::SimTime delta : shifts()) {
        SCOPED_TRACE("cluster shifted by " + util::to_string(delta));
        const ClusterReport got =
            TurbulenceCluster(saturated_cluster(death + delta)).run(shifted(trace, delta));
        EXPECT_TRUE(got == want);
    }
}

}  // namespace
}  // namespace jaws::core
