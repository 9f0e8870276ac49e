// Robustness / edge-case tests across the stack: degenerate configurations,
// boundary datasets, hostile-but-legal inputs, and injected storage/node
// faults must not crash or violate invariants.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/cluster.h"
#include "core/engine.h"
#include "workload/generator.h"

namespace jaws {
namespace {

core::EngineConfig tiny_config() {
    core::EngineConfig c;
    c.grid.voxels_per_side = 64;
    c.grid.atom_side = 32;  // 2 atoms per side -> 8 atoms per step
    c.grid.ghost = 2;
    c.grid.timesteps = 2;
    c.field.modes = 4;
    c.cache.capacity_atoms = 2;
    return c;
}

workload::Job single_query_job(workload::QueryId qid, std::uint64_t morton,
                               std::uint32_t step = 0) {
    workload::Job job;
    job.id = qid;
    job.type = workload::JobType::kBatched;
    workload::Query q;
    q.id = qid;
    q.job = job.id;
    q.timestep = step;
    q.footprint.push_back(workload::AtomRequest{{step, morton}, 5});
    job.queries.push_back(q);
    return job;
}

TEST(Robustness, TinyDatasetTinyCache) {
    for (const core::SchedulerKind kind :
         {core::SchedulerKind::kNoShare, core::SchedulerKind::kLifeRaft,
          core::SchedulerKind::kJaws}) {
        core::EngineConfig config = tiny_config();
        config.scheduler.kind = kind;
        workload::Workload w;
        for (workload::QueryId i = 1; i <= 20; ++i)
            w.jobs.push_back(single_query_job(i, i % 8, i % 2));
        core::Engine engine(config);
        const core::RunReport report = engine.run(w);
        ASSERT_EQ(report.queries, 20u);
    }
}

TEST(Robustness, OneAtomCacheNeverUnderflows) {
    core::EngineConfig config = tiny_config();
    config.cache.capacity_atoms = 1;
    config.scheduler.kind = core::SchedulerKind::kJaws;
    workload::Workload w;
    for (workload::QueryId i = 1; i <= 30; ++i)
        w.jobs.push_back(single_query_job(i, i % 8));
    core::Engine engine(config);
    EXPECT_EQ(engine.run(w).queries, 30u);
}

TEST(Robustness, SingleJobSingleQuery) {
    core::EngineConfig config = tiny_config();
    workload::Workload w;
    w.jobs.push_back(single_query_job(1, 0));
    core::Engine engine(config);
    const core::RunReport report = engine.run(w);
    EXPECT_EQ(report.queries, 1u);
    EXPECT_GT(report.makespan.raw_micros(), 0);
}

TEST(Robustness, JobWithEmptyQueryListIsSkipped) {
    core::EngineConfig config = tiny_config();
    workload::Workload w;
    workload::Job empty;
    empty.id = 1;
    w.jobs.push_back(empty);
    w.jobs.push_back(single_query_job(2, 3));
    core::Engine engine(config);
    const core::RunReport report = engine.run(w);
    EXPECT_EQ(report.queries, 1u);
}

TEST(Robustness, ManyIdenticalQueriesCollapseToSharedReads) {
    core::EngineConfig config = tiny_config();
    config.scheduler.kind = core::SchedulerKind::kLifeRaft;
    workload::Workload w;
    for (workload::QueryId i = 1; i <= 50; ++i) w.jobs.push_back(single_query_job(i, 4));
    core::Engine engine(config);
    const core::RunReport report = engine.run(w);
    EXPECT_EQ(report.queries, 50u);
    // All fifty queries hit the same atom; the batcher needs very few reads.
    EXPECT_LE(report.atom_reads, 5u);
}

TEST(Robustness, HugeSpeedupCollapsesArrivals) {
    core::EngineConfig config = tiny_config();
    config.scheduler.kind = core::SchedulerKind::kJaws;
    workload::WorkloadSpec spec;
    spec.jobs = 15;
    const field::SyntheticField field(config.field);
    workload::Workload w = workload::generate_workload(spec, config.grid, field);
    workload::apply_speedup(w, 1e9);  // everything at t ~ first arrival
    core::Engine engine(config);
    EXPECT_EQ(engine.run(w).queries, w.total_queries());
}

TEST(Robustness, ExtremeSlowdownStillCompletes) {
    core::EngineConfig config = tiny_config();
    workload::WorkloadSpec spec;
    spec.jobs = 5;
    const field::SyntheticField field(config.field);
    workload::Workload w = workload::generate_workload(spec, config.grid, field);
    workload::apply_speedup(w, 1e-3);  // gaps stretched a thousandfold
    core::Engine engine(config);
    EXPECT_EQ(engine.run(w).queries, w.total_queries());
}

TEST(Robustness, ClusterWithMoreNodesThanAtoms) {
    core::ClusterConfig config;
    config.node = tiny_config();  // 8 atoms per step
    config.nodes = 16;            // more nodes than atoms
    workload::Workload w;
    for (workload::QueryId i = 1; i <= 10; ++i) w.jobs.push_back(single_query_job(i, i % 8));
    core::TurbulenceCluster cluster(config);
    const core::ClusterReport report = cluster.run(w);
    std::size_t total = 0;
    for (const auto& r : report.per_node) total += r.queries;
    EXPECT_EQ(total, 10u);
}

TEST(Robustness, QosAndPrefetchTogether) {
    core::EngineConfig config = tiny_config();
    config.scheduler.kind = core::SchedulerKind::kJaws;
    config.scheduler.jaws.qos.enabled = true;
    config.scheduler.jaws.qos.slack_factor = 10.0;
    config.prefetch.enabled = true;
    workload::WorkloadSpec spec;
    spec.jobs = 20;
    const field::SyntheticField field(config.field);
    const workload::Workload w = workload::generate_workload(spec, config.grid, field);
    core::Engine engine(config);
    const core::RunReport report = engine.run(w);
    EXPECT_EQ(report.queries, w.total_queries());
    EXPECT_EQ(report.qos.guaranteed, w.total_queries());
}

TEST(Robustness, ZeroRunLengthDisablesRunBoundaries) {
    core::EngineConfig config = tiny_config();
    config.run_length = 0;
    config.cache.policy = core::CachePolicy::kSlru;  // depends on run boundaries
    workload::Workload w;
    for (workload::QueryId i = 1; i <= 10; ++i) w.jobs.push_back(single_query_job(i, i % 8));
    core::Engine engine(config);
    EXPECT_EQ(engine.run(w).queries, 10u);
}

TEST(Robustness, EngineAloneClosesTheAlphaControllersRuns) {
    // JAWS's alpha controller closes a run only where the engine closes one:
    // never at run_length 0, and after every run_length-th completion
    // otherwise.
    core::EngineConfig config;
    config.grid.voxels_per_side = 256;
    config.grid.atom_side = 32;
    config.grid.timesteps = 8;
    config.field.modes = 4;
    config.cache.capacity_atoms = 32;
    workload::WorkloadSpec spec;
    spec.seed = 3;
    spec.jobs = 20;
    const field::SyntheticField field(config.field);
    const workload::Workload w = workload::generate_workload(spec, config.grid, field);
    for (const std::size_t run_length : {std::size_t{0}, std::size_t{10}}) {
        SCOPED_TRACE(run_length);
        config.run_length = run_length;
        core::Engine engine(config);
        const core::RunReport report = engine.run(w);
        ASSERT_EQ(report.queries, w.total_queries());
        const auto& jaws = dynamic_cast<const sched::JawsScheduler&>(engine.scheduler());
        if (run_length == 0) {
            EXPECT_EQ(jaws.controller().runs(), 0u);
            EXPECT_EQ(report.final_alpha, config.scheduler.jaws.alpha.initial_alpha);
        } else {
            EXPECT_EQ(jaws.controller().runs(), report.queries / run_length);
        }
    }
}

TEST(Robustness, AllSchedulersHandleMaterializedData) {
    for (const core::SchedulerKind kind :
         {core::SchedulerKind::kNoShare, core::SchedulerKind::kLifeRaft,
          core::SchedulerKind::kJaws}) {
        core::EngineConfig config = tiny_config();
        config.materialize_data = true;
        config.scheduler.kind = kind;
        workload::Workload w;
        for (workload::QueryId i = 1; i <= 6; ++i) w.jobs.push_back(single_query_job(i, i % 8));
        core::Engine engine(config);
        ASSERT_EQ(engine.run(w).queries, 6u);
    }
}

// ---------------------------------------------------------------------------
// Config validation (satellite: reject degenerate configs at construction).
// ---------------------------------------------------------------------------

TEST(ConfigValidation, RejectsDegenerateEngineConfigs) {
    {
        core::EngineConfig c = tiny_config();
        c.cache.capacity_atoms = 0;
        EXPECT_THROW(core::Engine{c}, std::invalid_argument);
    }
    {
        core::EngineConfig c = tiny_config();
        c.grid.atom_side = 24;  // does not divide 64
        EXPECT_THROW(core::Engine{c}, std::invalid_argument);
    }
    {
        core::EngineConfig c = tiny_config();
        c.grid.atom_side = 0;
        EXPECT_THROW(core::Engine{c}, std::invalid_argument);
    }
    {
        core::EngineConfig c = tiny_config();
        c.grid.timesteps = 0;
        EXPECT_THROW(core::Engine{c}, std::invalid_argument);
    }
    {
        core::EngineConfig c = tiny_config();
        c.estimates.t_b_ms = -1.0;
        EXPECT_THROW(core::Engine{c}, std::invalid_argument);
    }
    {
        core::EngineConfig c = tiny_config();
        c.disk.transfer_mb_per_s = 0.0;
        EXPECT_THROW(core::Engine{c}, std::invalid_argument);
    }
    {
        core::EngineConfig c = tiny_config();
        c.scheduler.jaws.batch_size_k = 0;
        EXPECT_THROW(core::Engine{c}, std::invalid_argument);
    }
    {
        core::EngineConfig c = tiny_config();
        c.faults.transient_error_rate = 1.5;
        EXPECT_THROW(core::Engine{c}, std::invalid_argument);
    }
    {
        core::EngineConfig c = tiny_config();
        c.retry.max_attempts = 0;
        EXPECT_THROW(core::Engine{c}, std::invalid_argument);
    }
}

TEST(ConfigValidation, RejectsDegenerateHedgeAndTailSpecs) {
    {
        core::EngineConfig c = tiny_config();
        c.hedge.enabled = true;
        c.hedge.trigger_ewma_multiplier = 0.0;
        EXPECT_THROW(core::Engine{c}, std::invalid_argument);
    }
    {
        core::EngineConfig c = tiny_config();
        c.hedge.enabled = true;
        c.hedge.max_outstanding = 0;
        EXPECT_THROW(core::Engine{c}, std::invalid_argument);
    }
    {
        core::EngineConfig c = tiny_config();
        c.hedge.enabled = true;
        c.hedge.budget_per_query = 0;
        EXPECT_THROW(core::Engine{c}, std::invalid_argument);
    }
    {
        core::EngineConfig c = tiny_config();
        c.disk.heavy_tail.rate = 1.5;  // not a probability
        EXPECT_THROW(core::Engine{c}, std::invalid_argument);
    }
    {
        core::EngineConfig c = tiny_config();
        c.faults.stuck_read_rate = -0.1;
        EXPECT_THROW(core::Engine{c}, std::invalid_argument);
    }
    {
        core::EngineConfig c = tiny_config();
        c.deadline_budget_ms = -5.0;
        EXPECT_THROW(core::Engine{c}, std::invalid_argument);
    }
}

TEST(ConfigValidation, RejectsDegenerateClusterConfigs) {
    {
        core::ClusterConfig c;
        c.node = tiny_config();
        c.nodes = 0;
        EXPECT_THROW(core::TurbulenceCluster{c}, std::invalid_argument);
    }
    {
        core::ClusterConfig c;
        c.node = tiny_config();
        c.nodes = 2;
        c.replication = 3;  // more copies than nodes
        EXPECT_THROW(core::TurbulenceCluster{c}, std::invalid_argument);
    }
    {
        core::ClusterConfig c;
        c.node = tiny_config();
        c.nodes = 2;
        c.node.faults.node_down.push_back(
            storage::NodeDownEvent{util::NodeIndex{5}, util::SimTime::from_seconds(1)});
        EXPECT_THROW(core::TurbulenceCluster{c}, std::invalid_argument);
    }
    {
        core::ClusterConfig c;
        c.node = tiny_config();
        c.node.cache.capacity_atoms = 0;  // node template is validated too
        EXPECT_THROW(core::TurbulenceCluster{c}, std::invalid_argument);
    }
}

TEST(ConfigValidation, ApplySpeedupRejectsNonPositiveFactors) {
    workload::Workload w;
    w.jobs.push_back(single_query_job(1, 0));
    EXPECT_THROW(workload::apply_speedup(w, 0.0), std::invalid_argument);
    EXPECT_THROW(workload::apply_speedup(w, -2.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fault injection and recovery.
// ---------------------------------------------------------------------------

TEST(FaultRecovery, CertainTransientErrorsStillTerminate) {
    // Every read attempt fails: all retries exhaust, every query completes
    // degraded (partial results), and the run terminates instead of spinning.
    for (const core::SchedulerKind kind :
         {core::SchedulerKind::kNoShare, core::SchedulerKind::kLifeRaft,
          core::SchedulerKind::kJaws}) {
        core::EngineConfig config = tiny_config();
        config.scheduler.kind = kind;
        config.faults.transient_error_rate = 1.0;
        workload::Workload w;
        for (workload::QueryId i = 1; i <= 12; ++i)
            w.jobs.push_back(single_query_job(i, i % 8, i % 2));
        core::Engine engine(config);
        const core::RunReport report = engine.run(w);
        ASSERT_EQ(report.queries, 12u);
        EXPECT_EQ(report.degraded_queries, 12u);
        EXPECT_GT(report.read_failures, 0u);
        EXPECT_GT(report.read_retries, 0u);
        EXPECT_GT(report.retry_backoff_time.raw_micros(), 0);
        EXPECT_EQ(report.atom_reads, 0u);  // nothing ever made it to the cache
    }
}

TEST(FaultRecovery, ModerateErrorRateRecoversThroughRetries) {
    core::EngineConfig config = tiny_config();
    config.scheduler.kind = core::SchedulerKind::kJaws;
    config.faults.transient_error_rate = 0.3;
    workload::Workload w;
    for (workload::QueryId i = 1; i <= 40; ++i)
        w.jobs.push_back(single_query_job(i, i % 8, i % 2));
    core::Engine engine(config);
    const core::RunReport report = engine.run(w);
    ASSERT_EQ(report.queries, 40u);
    EXPECT_GT(report.read_retries, 0u);
    EXPECT_GT(report.faults.transient_faults, 0u);
    // With 4 attempts at 30 % error, per-read failure ~ 0.8 %: most queries
    // must survive undegraded.
    EXPECT_LT(report.degraded_queries, 10u);
}

TEST(FaultRecovery, PermanentBadRangeFailsFastWithoutRetries) {
    core::EngineConfig config = tiny_config();
    config.scheduler.kind = core::SchedulerKind::kJaws;
    config.faults.bad_ranges.push_back(storage::BadRange{3, 3});
    workload::Workload w;
    w.jobs.push_back(single_query_job(1, 3));  // on the bad atom
    w.jobs.push_back(single_query_job(2, 5));  // healthy
    core::Engine engine(config);
    const core::RunReport report = engine.run(w);
    ASSERT_EQ(report.queries, 2u);
    EXPECT_EQ(report.degraded_queries, 1u);
    EXPECT_EQ(report.read_failures, 1u);
    EXPECT_EQ(report.read_retries, 0u);  // permanent faults skip backoff
    EXPECT_EQ(report.faults.permanent_faults, 1u);
    for (const core::QueryOutcome& o : engine.outcomes())
        EXPECT_EQ(o.degraded(), o.query == 1u);
}

TEST(FaultRecovery, StragglerDiskWithPrefetchDoesNotDeadlock) {
    core::EngineConfig config = tiny_config();
    config.scheduler.kind = core::SchedulerKind::kJaws;
    config.prefetch.enabled = true;
    config.faults.latency_spike_rate = 0.5;
    config.faults.latency_spike_mean_ms = 200.0;
    config.faults.transient_error_rate = 0.2;
    workload::WorkloadSpec spec;
    spec.jobs = 15;
    const field::SyntheticField field(config.field);
    const workload::Workload w = workload::generate_workload(spec, config.grid, field);
    core::Engine engine(config);
    const core::RunReport report = engine.run(w);
    EXPECT_EQ(report.queries, w.total_queries());
    EXPECT_GT(report.faults.latency_spikes, 0u);
    EXPECT_GT(report.disk.fault_delay.raw_micros(), 0);
}

TEST(FaultRecovery, IdenticalSeedsGiveBitIdenticalRuns) {
    const auto run_once = [] {
        core::EngineConfig config = tiny_config();
        config.scheduler.kind = core::SchedulerKind::kJaws;
        config.faults.seed = 1234;
        config.faults.transient_error_rate = 0.25;
        config.faults.latency_spike_rate = 0.25;
        config.faults.latency_spike_mean_ms = 80.0;
        workload::WorkloadSpec spec;
        spec.jobs = 12;
        const field::SyntheticField field(config.field);
        const workload::Workload w = workload::generate_workload(spec, config.grid, field);
        core::Engine engine(config);
        return engine.run(w);
    };
    const core::RunReport a = run_once();
    const core::RunReport b = run_once();
    ASSERT_GT(a.read_retries, 0u);  // the faults actually fired
    EXPECT_TRUE(a == b);
}

TEST(FaultRecovery, RetryDuringInFlightPooledEvalMatchesSerialCounters) {
    // io_depth 4 / compute_workers 4 on materialised data: while one batch
    // item's demand read backs off after a transient fault, its siblings'
    // sub-queries are in flight on the evaluation pool. The retry machinery
    // and the pool must not interact — every fault counter, the virtual
    // timeline and the sample digest must equal the inline-evaluation
    // engine's, for it is the same virtual trace either way.
    const auto run_once = [](bool parallel) {
        core::EngineConfig config = tiny_config();
        config.grid.ghost = 4;  // generated workloads include kLag8 kernels
        config.scheduler.kind = core::SchedulerKind::kJaws;
        config.io_depth = 4;
        config.compute_workers = 4;
        config.materialize_data = true;
        config.eval.parallel = parallel;
        config.faults.seed = 77;
        config.faults.transient_error_rate = 0.35;
        config.faults.latency_spike_rate = 0.2;
        config.faults.latency_spike_mean_ms = 50.0;
        workload::WorkloadSpec spec;
        spec.jobs = 10;
        spec.seed = 9;
        spec.max_positions = 400;
        const field::SyntheticField field(config.field);
        workload::Workload w = workload::generate_workload(spec, config.grid, field);
        workload::materialize_positions(w, config.grid, 13);
        core::Engine engine(config);
        return engine.run(w);
    };
    core::RunReport pooled = run_once(true);
    const core::RunReport serial = run_once(false);
    ASSERT_GT(pooled.read_retries, 0u);  // the scenario actually occurred
    ASSERT_GT(pooled.eval_tasks, 0u);    // ... with work on the pool
    EXPECT_EQ(serial.eval_threads, 0u);
    EXPECT_EQ(serial.eval_tasks, 0u);
    // Only where evaluation ran may differ: the pool's workers and the
    // sub-queries handed to them, which an inline run counts as zero.
    pooled.eval_threads = 0;
    pooled.eval_tasks = 0;
    EXPECT_TRUE(pooled == serial);
}

TEST(FaultRecovery, ZeroedFaultSpecReportsNoFaultActivity) {
    core::EngineConfig config = tiny_config();
    workload::Workload w;
    for (workload::QueryId i = 1; i <= 10; ++i) w.jobs.push_back(single_query_job(i, i % 8));
    core::Engine engine(config);
    const core::RunReport report = engine.run(w);
    EXPECT_EQ(report.queries, 10u);
    EXPECT_EQ(report.read_retries, 0u);
    EXPECT_EQ(report.read_failures, 0u);
    EXPECT_EQ(report.degraded_queries, 0u);
    EXPECT_EQ(report.retry_backoff_time.raw_micros(), 0);
    EXPECT_EQ(report.faults.transient_faults, 0u);
    EXPECT_EQ(report.faults.latency_spikes, 0u);
    EXPECT_EQ(report.disk.fault_delay.raw_micros(), 0);
    EXPECT_FALSE(report.halted);
}

// ---------------------------------------------------------------------------
// Node death and cluster failover.
// ---------------------------------------------------------------------------

namespace {
workload::Workload cluster_workload(std::size_t queries) {
    workload::Workload w;
    for (workload::QueryId i = 1; i <= queries; ++i) {
        workload::Job job = single_query_job(i, i % 8, i % 2);
        // Spread arrivals so a mid-run death leaves genuinely unfinished work.
        job.arrival = util::SimTime::from_millis(static_cast<double>(i) * 40.0);
        job.queries.front().think_time = util::SimTime::zero();
        w.jobs.push_back(std::move(job));
    }
    return w;
}

std::size_t completed_parts(const core::ClusterReport& report) {
    std::size_t total = 0;
    for (const auto& r : report.per_node) total += r.queries;
    return total;
}
}  // namespace

TEST(Failover, NodeDeathWithoutReplicationLosesOnlyThatNodesTail) {
    core::ClusterConfig config;
    config.node = tiny_config();
    config.nodes = 2;
    config.replication = 1;
    config.node.faults.node_down.push_back(
        storage::NodeDownEvent{util::NodeIndex{0}, util::SimTime::from_millis(1.0)});
    const workload::Workload w = cluster_workload(24);
    core::TurbulenceCluster cluster(config);
    const core::ClusterReport report = cluster.run(w);
    EXPECT_EQ(report.dead_nodes, 1u);
    EXPECT_EQ(report.failovers, 0u);
    EXPECT_GT(report.lost_queries, 0u);
    // Lost + completed covers every projected query part; nothing vanishes
    // silently.
    EXPECT_EQ(completed_parts(report) + report.lost_queries,
              static_cast<std::size_t>(24));
}

TEST(Failover, NodeDeathWithReplicationCompletesEverything) {
    core::ClusterConfig config;
    config.node = tiny_config();
    config.nodes = 2;
    config.replication = 2;
    config.node.faults.node_down.push_back(
        storage::NodeDownEvent{util::NodeIndex{0}, util::SimTime::from_millis(1.0)});
    const workload::Workload w = cluster_workload(24);
    core::TurbulenceCluster cluster(config);
    const core::ClusterReport report = cluster.run(w);
    EXPECT_EQ(report.dead_nodes, 1u);
    EXPECT_GE(report.failovers, 1u);
    EXPECT_EQ(report.lost_queries, 0u);
    EXPECT_GT(report.requeued_queries, 0u);
    EXPECT_EQ(completed_parts(report), static_cast<std::size_t>(24));
    EXPECT_GT(report.makespan.raw_micros(), 0);
}

TEST(Failover, DeathAfterCompletionRequiresNoRecovery) {
    core::ClusterConfig config;
    config.node = tiny_config();
    config.nodes = 2;
    config.replication = 2;
    config.node.faults.node_down.push_back(
        storage::NodeDownEvent{util::NodeIndex{0}, util::SimTime::from_seconds(1e6)});
    const workload::Workload w = cluster_workload(10);
    core::TurbulenceCluster cluster(config);
    const core::ClusterReport report = cluster.run(w);
    EXPECT_EQ(report.dead_nodes, 1u);
    EXPECT_EQ(report.failovers, 0u);
    EXPECT_EQ(report.lost_queries, 0u);
    EXPECT_EQ(completed_parts(report), static_cast<std::size_t>(10));
}

TEST(Failover, HaltedEngineReportsPartialCompletion) {
    // A node halts only inside the cluster kernel. Every job arrives at t = 0
    // so the node is busy when it dies at 1 ms (with cluster_workload's 40 ms
    // spacing it would die before its first arrival and report nothing); its
    // in-flight batch completes and, with no replica, the rest is lost.
    core::ClusterConfig config;
    config.node = tiny_config();
    config.nodes = 1;
    config.node.faults.node_down.push_back(
        storage::NodeDownEvent{util::NodeIndex{0}, util::SimTime::from_millis(1.0)});
    workload::Workload w = cluster_workload(12);
    for (workload::Job& job : w.jobs) job.arrival = util::SimTime::zero();
    const core::ClusterReport report = core::TurbulenceCluster(config).run(w);
    ASSERT_EQ(report.per_node.size(), 1u);
    EXPECT_TRUE(report.per_node[0].halted);
    EXPECT_LT(report.per_node[0].queries, 12u);
    EXPECT_EQ(report.per_node[0].queries + report.lost_queries, 12u);
}

}  // namespace
}  // namespace jaws
