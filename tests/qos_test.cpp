// Tests for completion-time guarantees (sched/qos.h + scheduler/engine wiring).
#include <gtest/gtest.h>

#include "core/engine.h"
#include "sched/jaws.h"
#include "workload/generator.h"

namespace jaws::sched {
namespace {

workload::Job one_query_job(workload::JobId id, std::uint64_t morton,
                            std::uint64_t positions) {
    workload::Job j;
    j.id = id;
    j.type = workload::JobType::kBatched;
    workload::Query q;
    q.id = id * 100;
    q.job = id;
    q.timestep = 0;
    q.footprint.push_back(workload::AtomRequest{{0, morton}, positions});
    j.queries.push_back(q);
    return j;
}

JawsConfig qos_config(double slack, double margin_ms) {
    JawsConfig c;
    c.adaptive_alpha = false;
    c.alpha.initial_alpha = 0.0;
    c.job_aware = false;
    c.qos.enabled = true;
    c.qos.slack_factor = slack;
    c.qos.margin_ms = margin_ms;
    return c;
}

TEST(QosScheduler, AssignsSizeProportionalDeadlines) {
    JawsScheduler s(CostConstants{}, nullptr, qos_config(4.0, 100.0));
    const auto small = one_query_job(1, 5, 100);
    const auto large = one_query_job(2, 9, 10000);
    s.on_job_submitted(small);
    s.on_job_submitted(large);
    s.on_query_visible(small.queries[0], util::SimTime::zero());
    s.on_query_visible(large.queries[0], util::SimTime::zero());
    EXPECT_EQ(s.qos_stats()->guaranteed, 2u);
    // Earliest deadline belongs to the small query (shorter service estimate).
    const auto urgent = s.manager().earliest_deadline_atom();
    ASSERT_TRUE(urgent.has_value());
    EXPECT_EQ(urgent->first.morton, 5u);
}

TEST(QosScheduler, RescueOverridesContentionOrder) {
    // A barely-contended query whose deadline is imminent must be dispatched
    // before a heavily contended atom.
    JawsScheduler s(CostConstants{}, nullptr, qos_config(1.0, 1e9));  // huge margin
    const auto urgent = one_query_job(1, 5, 16);
    const auto heavy = one_query_job(2, 9, 20000);
    s.on_job_submitted(urgent);
    s.on_job_submitted(heavy);
    s.on_query_visible(urgent.queries[0], util::SimTime::zero());
    s.on_query_visible(heavy.queries[0], util::SimTime::zero());
    Batch batch;
    s.next_batch(util::SimTime::zero(), batch);
    ASSERT_FALSE(batch.empty());
    EXPECT_EQ(batch.items[0].atom.morton, 5u);  // EDF rescue, not contention
    EXPECT_GE(s.qos_stats()->edf_dispatches, 1u);
}

TEST(QosScheduler, NoRescueWhenDeadlinesSafe) {
    JawsScheduler s(CostConstants{}, nullptr, qos_config(1e6, 1.0));  // tiny margin
    const auto a = one_query_job(1, 5, 16);
    const auto b = one_query_job(2, 9, 20000);
    s.on_job_submitted(a);
    s.on_job_submitted(b);
    s.on_query_visible(a.queries[0], util::SimTime::zero());
    s.on_query_visible(b.queries[0], util::SimTime::zero());
    Batch batch;
    s.next_batch(util::SimTime::zero(), batch);
    EXPECT_EQ(s.qos_stats()->edf_dispatches, 0u);
}

TEST(QosScheduler, MissAccounting) {
    JawsScheduler s(CostConstants{}, nullptr, qos_config(0.001, 0.0));  // impossible
    const auto a = one_query_job(1, 5, 1000);
    s.on_job_submitted(a);
    s.on_query_visible(a.queries[0], util::SimTime::zero());
    Batch batch;
    s.next_batch(util::SimTime::zero(), batch);
    s.on_query_completed(a.queries[0].id, util::SimTime::from_seconds(100),
                         util::SimTime::from_seconds(100));
    EXPECT_EQ(s.qos_stats()->misses, 1u);
    EXPECT_GT(s.qos_stats()->mean_tardiness_ms(), 0.0);
    EXPECT_DOUBLE_EQ(s.qos_stats()->miss_rate(), 1.0);
}

TEST(QosEngine, GenerousDeadlinesMostlyMet) {
    core::EngineConfig config;
    config.grid.voxels_per_side = 256;
    config.grid.atom_side = 32;
    config.grid.timesteps = 8;
    config.field.modes = 6;
    config.cache.capacity_atoms = 48;
    config.scheduler.kind = core::SchedulerKind::kJaws;
    config.scheduler.jaws.qos.enabled = true;
    config.scheduler.jaws.qos.slack_factor = 5000.0;  // very generous
    config.scheduler.jaws.qos.margin_ms = 1000.0;

    workload::WorkloadSpec spec;
    spec.jobs = 40;
    spec.seed = 5;
    const field::SyntheticField field(config.field);
    const workload::Workload w = workload::generate_workload(spec, config.grid, field);
    core::Engine engine(config);
    const core::RunReport report = engine.run(w);
    EXPECT_EQ(report.qos.guaranteed, w.total_queries());
    EXPECT_LT(report.qos.miss_rate(), 0.05);
}

TEST(QosEngine, TightDeadlinesReduceMissesVersusNoQos) {
    // With QoS on, short queries get rescued; their completion times (and
    // miss rate against the same hypothetical deadlines) must improve over
    // the contention-only scheduler.
    core::EngineConfig base;
    base.grid.voxels_per_side = 256;
    base.grid.atom_side = 32;
    base.grid.timesteps = 8;
    base.field.modes = 6;
    base.cache.capacity_atoms = 48;
    base.scheduler.kind = core::SchedulerKind::kJaws;

    workload::WorkloadSpec spec;
    spec.jobs = 60;
    spec.seed = 9;
    spec.mean_burst_gap_s = 4.0;  // saturate so deadlines are actually at risk
    const field::SyntheticField field(base.field);
    const workload::Workload w = workload::generate_workload(spec, base.grid, field);

    core::EngineConfig qos = base;
    qos.scheduler.jaws.qos.enabled = true;
    qos.scheduler.jaws.qos.slack_factor = 50.0;
    qos.scheduler.jaws.qos.margin_ms = 2000.0;
    core::Engine engine(qos);
    const core::RunReport report = engine.run(w);
    EXPECT_GT(report.qos.edf_dispatches, 0u);
    // Guarantees are proportional: the miss rate should stay moderate even
    // under saturation because rescue dispatches pull at-risk queries ahead.
    EXPECT_LT(report.qos.miss_rate(), 0.5);
}

}  // namespace
}  // namespace jaws::sched
