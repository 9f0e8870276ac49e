// Hedged replica reads, straggler cancellation, deadline budgets and the
// retry circuit breaker (tail-latency robustness).
//
// The scenarios run a heavy-tailed disk (DiskSpec::heavy_tail) so a known
// fraction of demand reads straggle; hedging must cut the response-time tail
// (p99) relative to the same seeds unhedged, stay bit-deterministic, respect
// its budgets, and — when disabled — leave the engine's behaviour untouched.
#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.h"
#include "util/stats.h"
#include "workload/job.h"

namespace jaws {
namespace {

core::EngineConfig tail_config() {
    core::EngineConfig c;
    c.grid.voxels_per_side = 64;
    c.grid.atom_side = 32;  // 2 atoms per side -> 8 atoms per step
    c.grid.ghost = 2;
    c.grid.timesteps = 2;
    c.field.modes = 4;
    c.cache.capacity_atoms = 2;
    c.io_depth = 2;  // a hedge needs a replica channel to run on
    // One read in five draws a large straggler multiplier: the tail, not the
    // mean, dominates p99.
    c.disk.heavy_tail.rate = 0.2;
    c.disk.heavy_tail.lognormal_mu = 3.0;
    c.disk.heavy_tail.lognormal_sigma = 0.5;
    c.disk.heavy_tail.seed = 99;
    return c;
}

workload::Job single_query_job(workload::QueryId qid, std::uint64_t morton,
                               std::uint32_t step, double arrival_ms) {
    workload::Job job;
    job.id = qid;
    job.type = workload::JobType::kBatched;
    job.arrival = util::SimTime::from_millis(arrival_ms);
    workload::Query q;
    q.id = qid;
    q.job = job.id;
    q.timestep = step;
    q.footprint.push_back(workload::AtomRequest{{step, morton}, 5});
    job.queries.push_back(q);
    return job;
}

/// Queries spread far enough apart that each runs as its own batch (its own
/// demand read), so per-query response time is dominated by that one read.
workload::Workload spread_workload(std::size_t queries) {
    workload::Workload w;
    for (workload::QueryId i = 1; i <= queries; ++i)
        w.jobs.push_back(single_query_job(i, (i * 3) % 8, i % 2,
                                          static_cast<double>(i) * 400.0));
    return w;
}

core::RunReport run_with(const core::EngineConfig& config, std::size_t queries = 60) {
    core::Engine engine(config);
    return engine.run(spread_workload(queries));
}

// ---------------------------------------------------------------------------
// The headline property: hedging cuts the tail at equal seeds.
// ---------------------------------------------------------------------------

TEST(Hedging, CutsP99AgainstHeavyTailAtEqualSeeds) {
    core::EngineConfig off = tail_config();
    core::EngineConfig on = tail_config();
    on.hedge.enabled = true;  // adaptive EWMA trigger
    const core::RunReport r_off = run_with(off);
    const core::RunReport r_on = run_with(on);
    ASSERT_EQ(r_off.queries, 60u);
    ASSERT_EQ(r_on.queries, 60u);
    ASSERT_GT(r_off.disk.slow_draws, 0u);  // the tail scenario actually fired
    EXPECT_GT(r_on.hedges_issued, 0u);
    EXPECT_GT(r_on.hedges_won, 0u);
    // The whole point: duplicated reads rescue stragglers at the tail.
    EXPECT_LT(r_on.p99_response_ms, r_off.p99_response_ms);
    // The price is wasted work on cancelled losers, and it is accounted.
    EXPECT_GT(r_on.cancellations, 0u);
    EXPECT_GT(r_on.wasted_service.raw_micros(), 0);
    EXPECT_EQ(r_off.hedges_issued, 0u);
    EXPECT_EQ(r_off.cancellations, 0u);
    EXPECT_EQ(r_off.wasted_service.raw_micros(), 0);
}

// ---------------------------------------------------------------------------
// Determinism and accounting invariants.
// ---------------------------------------------------------------------------

TEST(Hedging, RepeatRunsAreBitIdentical) {
    core::EngineConfig config = tail_config();
    config.hedge.enabled = true;
    const core::RunReport a = run_with(config);
    const core::RunReport b = run_with(config);
    ASSERT_GT(a.hedges_issued, 0u);
    EXPECT_TRUE(a == b);
}

TEST(Hedging, EveryIssuedHedgeIsWonOrLost) {
    core::EngineConfig config = tail_config();
    config.hedge.enabled = true;
    const core::RunReport r = run_with(config);
    ASSERT_GT(r.hedges_issued, 0u);
    EXPECT_EQ(r.hedges_won + r.hedges_lost, r.hedges_issued);
    // p999 sits at or above p99 by construction.
    EXPECT_GE(r.p999_response_ms, r.p99_response_ms);
}

TEST(Hedging, DisabledSpecLeavesCountersAndTraceUntouched) {
    // Hedging off must schedule nothing: same config twice is bit-identical
    // and every hedge counter stays zero (the serial golden-equivalence suite
    // pins the stronger cross-version guarantee).
    core::EngineConfig config = tail_config();
    const core::RunReport a = run_with(config);
    const core::RunReport b = run_with(config);
    EXPECT_TRUE(a == b);
    EXPECT_EQ(a.hedges_issued, 0u);
    EXPECT_EQ(a.hedges_won, 0u);
    EXPECT_EQ(a.hedges_lost, 0u);
    EXPECT_EQ(a.cancellations, 0u);
    EXPECT_EQ(a.wasted_service, util::SimTime::zero());
    EXPECT_EQ(a.peak_hedges_outstanding, 0u);
}

// ---------------------------------------------------------------------------
// Budgets and caps.
// ---------------------------------------------------------------------------

TEST(Hedging, PerQueryBudgetBoundsHedgedReads) {
    core::EngineConfig config = tail_config();
    config.hedge.enabled = true;
    config.hedge.budget_per_query = 1;
    core::Engine engine(config);
    const core::RunReport r = engine.run(spread_workload(60));
    ASSERT_GT(r.hedges_issued, 0u);
    for (const core::QueryOutcome& o : engine.outcomes())
        EXPECT_LE(o.hedged_reads, 1u);
}

TEST(Hedging, OutstandingCapBoundsThePeakWatermark) {
    core::EngineConfig config = tail_config();
    config.hedge.enabled = true;
    config.hedge.max_outstanding = 1;
    const core::RunReport r = run_with(config);
    ASSERT_GT(r.hedges_issued, 0u);
    EXPECT_LE(r.peak_hedges_outstanding, 1u);
}

// ---------------------------------------------------------------------------
// Deadline budgets: graceful degradation instead of unbounded retries.
// ---------------------------------------------------------------------------

TEST(DeadlineBudget, StuckReadsDegradeInsteadOfRetryingPastBudget) {
    // Every read hangs for 2 s (stuck command) and then fails; the budget is
    // 1 s. At the first retry boundary every owner is already over budget, so
    // queries complete degraded with zero retries — never past the budget.
    core::EngineConfig config = tail_config();
    config.disk.heavy_tail = storage::HeavyTailSpec{};  // isolate the faults
    config.faults.transient_error_rate = 1.0;
    config.faults.stuck_read_rate = 1.0;
    config.faults.stuck_read_ms = 2000.0;
    config.deadline_budget_ms = 1000.0;
    const core::RunReport r = run_with(config, 12);
    ASSERT_EQ(r.queries, 12u);
    EXPECT_EQ(r.read_retries, 0u);
    EXPECT_EQ(r.deadline_misses, 12u);
    EXPECT_EQ(r.degraded_queries, 12u);
    EXPECT_GT(r.faults.stuck_reads, 0u);
    EXPECT_GT(r.faults.stuck_delay.raw_micros(), 0);
}

TEST(DeadlineBudget, GenerousBudgetChangesNothing) {
    core::EngineConfig faulty = tail_config();
    faulty.disk.heavy_tail = storage::HeavyTailSpec{};
    faulty.faults.transient_error_rate = 0.4;
    core::EngineConfig budgeted = faulty;
    budgeted.deadline_budget_ms = 1e9;  // never binds
    const core::RunReport a = run_with(faulty, 20);
    const core::RunReport b = run_with(budgeted, 20);
    ASSERT_GT(a.read_retries, 0u);
    EXPECT_EQ(b.deadline_misses, 0u);
    EXPECT_TRUE(a == b);
}

TEST(DeadlineBudget, MissesAreFlaggedOnTheOutcome) {
    core::EngineConfig config = tail_config();
    config.disk.heavy_tail = storage::HeavyTailSpec{};
    config.faults.transient_error_rate = 1.0;
    config.faults.stuck_read_rate = 1.0;
    config.faults.stuck_read_ms = 2000.0;
    config.deadline_budget_ms = 1000.0;
    core::Engine engine(config);
    const core::RunReport r = engine.run(spread_workload(6));
    ASSERT_EQ(r.queries, 6u);
    for (const core::QueryOutcome& o : engine.outcomes()) {
        EXPECT_TRUE(o.deadline_missed);
        EXPECT_TRUE(o.degraded());
    }
}

// ---------------------------------------------------------------------------
// Retry circuit breaker.
// ---------------------------------------------------------------------------

TEST(CircuitBreaker, TotalRetryBudgetFailsFastAfterwards) {
    core::EngineConfig config = tail_config();
    config.disk.heavy_tail = storage::HeavyTailSpec{};
    config.faults.transient_error_rate = 1.0;  // every attempt fails
    config.retry.total_retry_budget = 3;
    const core::RunReport r = run_with(config, 12);
    ASSERT_EQ(r.queries, 12u);
    EXPECT_LE(r.read_retries, 3u);
    EXPECT_GT(r.retries_suppressed, 0u);
    EXPECT_EQ(r.degraded_queries, 12u);
}

TEST(CircuitBreaker, ZeroBudgetMeansUnlimitedRetries) {
    core::EngineConfig config = tail_config();
    config.disk.heavy_tail = storage::HeavyTailSpec{};
    config.faults.transient_error_rate = 1.0;
    config.retry.total_retry_budget = 0;  // off
    const core::RunReport r = run_with(config, 12);
    // Every query walks the full backoff ladder: (max_attempts - 1) retries
    // per demand read.
    EXPECT_EQ(r.retries_suppressed, 0u);
    EXPECT_GT(r.read_retries, 3u);
}

// ---------------------------------------------------------------------------
// Hedging composed with the other robustness machinery.
// ---------------------------------------------------------------------------

TEST(Hedging, SurvivesTransientFaultsAndStuckReads) {
    core::EngineConfig config = tail_config();
    config.hedge.enabled = true;
    config.faults.transient_error_rate = 0.3;
    config.faults.stuck_read_rate = 0.1;
    config.faults.stuck_read_ms = 500.0;
    const core::RunReport r = run_with(config);
    ASSERT_EQ(r.queries, 60u);
    EXPECT_EQ(r.hedges_won + r.hedges_lost, r.hedges_issued);
    // Repeat for bit-identical confirmation under the full fault mix.
    EXPECT_TRUE(r == run_with(config));
}

}  // namespace
}  // namespace jaws
