// End-to-end tests for the single-node engine (core/engine.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "core/engine.h"
#include "workload/generator.h"

namespace jaws::core {
namespace {

EngineConfig small_config(SchedulerKind kind) {
    EngineConfig c;
    c.grid.voxels_per_side = 256;
    c.grid.atom_side = 32;
    c.grid.ghost = 2;
    c.grid.timesteps = 8;
    c.field.modes = 6;
    c.cache.capacity_atoms = 32;
    c.scheduler.kind = kind;
    c.run_length = 50;
    return c;
}

workload::Workload small_workload(const EngineConfig& config, std::size_t jobs = 40,
                                  std::uint64_t seed = 3) {
    workload::WorkloadSpec spec;
    spec.jobs = jobs;
    spec.seed = seed;
    const field::SyntheticField field(config.field);
    return workload::generate_workload(spec, config.grid, field);
}

class EngineAllSchedulers : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(EngineAllSchedulers, CompletesEveryQueryExactlyOnce) {
    const EngineConfig config = small_config(GetParam());
    const workload::Workload w = small_workload(config);
    Engine engine(config);
    const RunReport report = engine.run(w);
    EXPECT_EQ(report.queries, w.total_queries());
    EXPECT_EQ(report.jobs, w.jobs.size());

    std::unordered_set<workload::QueryId> seen;
    for (const auto& o : engine.outcomes()) {
        ASSERT_TRUE(seen.insert(o.query).second) << "query completed twice";
        ASSERT_GE(o.response().raw_micros(), 0);
        ASSERT_GE(o.completed.raw_micros(), o.visible.raw_micros());
    }
    EXPECT_EQ(seen.size(), w.total_queries());
}

TEST_P(EngineAllSchedulers, ConservesPositionsAndSubqueries) {
    const EngineConfig config = small_config(GetParam());
    const workload::Workload w = small_workload(config);
    std::uint64_t positions = 0, subqueries = 0;
    for (const auto& job : w.jobs)
        for (const auto& q : job.queries) {
            positions += q.total_positions();
            subqueries += q.footprint.size();
        }
    Engine engine(config);
    const RunReport report = engine.run(w);
    EXPECT_EQ(report.positions, positions);
    EXPECT_EQ(report.subqueries, subqueries);
}

TEST_P(EngineAllSchedulers, OrderedJobsCompleteInSequence) {
    const EngineConfig config = small_config(GetParam());
    const workload::Workload w = small_workload(config);
    Engine engine(config);
    engine.run(w);
    // Completion times within an ordered job must ascend with seq.
    std::unordered_map<workload::QueryId, util::SimTime> completed;
    for (const auto& o : engine.outcomes()) completed[o.query] = o.completed;
    for (const auto& job : w.jobs) {
        if (job.type != workload::JobType::kOrdered) continue;
        for (std::size_t i = 1; i < job.queries.size(); ++i)
            ASSERT_GE(completed.at(job.queries[i].id).raw_micros(),
                      completed.at(job.queries[i - 1].id).raw_micros());
    }
}

TEST_P(EngineAllSchedulers, ReportInternallyConsistent) {
    const EngineConfig config = small_config(GetParam());
    const workload::Workload w = small_workload(config);
    Engine engine(config);
    const RunReport report = engine.run(w);
    EXPECT_GT(report.makespan.raw_micros(), 0);
    EXPECT_GT(report.throughput_qps, 0.0);
    EXPECT_GT(report.busy_throughput_qps, 0.0);
    EXPECT_GE(report.busy_throughput_qps, report.throughput_qps);
    EXPECT_GT(report.mean_response_ms, 0.0);
    EXPECT_GE(report.p95_response_ms, report.median_response_ms);
    // Disk requests == cache-fill reads (primary misses only; support ghost
    // reads are charged without going through the store).
    EXPECT_EQ(report.disk.requests, report.atom_reads);
    EXPECT_EQ(report.cache.misses >= report.atom_reads, true);
    EXPECT_EQ(report.job_span_ms.size(), w.jobs.size());
}

TEST_P(EngineAllSchedulers, DeterministicAcrossRuns) {
    const EngineConfig config = small_config(GetParam());
    const workload::Workload w = small_workload(config);
    Engine a(config), b(config);
    const RunReport ra = a.run(w);
    const RunReport rb = b.run(w);
    EXPECT_TRUE(ra == rb);
    EXPECT_TRUE(a.outcomes() == b.outcomes());
}

INSTANTIATE_TEST_SUITE_P(Schedulers, EngineAllSchedulers,
                         ::testing::Values(SchedulerKind::kNoShare,
                                           SchedulerKind::kLifeRaft,
                                           SchedulerKind::kJaws));

TEST(Engine, SingleShot) {
    const EngineConfig config = small_config(SchedulerKind::kNoShare);
    const workload::Workload w = small_workload(config, 5);
    Engine engine(config);
    engine.run(w);
    EXPECT_THROW(engine.run(w), std::logic_error);
}

TEST(Engine, EmptyWorkloadTrivially) {
    const EngineConfig config = small_config(SchedulerKind::kJaws);
    Engine engine(config);
    const RunReport report = engine.run(workload::Workload{});
    EXPECT_EQ(report.queries, 0u);
}

TEST(Engine, GatingNeverForcesPromotions) {
    EngineConfig config = small_config(SchedulerKind::kJaws);
    config.scheduler.jaws.job_aware = true;
    const workload::Workload w = small_workload(config, 60, 17);
    Engine engine(config);
    const RunReport report = engine.run(w);
    EXPECT_GT(report.gating.alignments_run, 0u);
    EXPECT_EQ(report.gating.forced_promotions, 0u);
}

TEST(Engine, JobAwareReducesReads) {
    EngineConfig with = small_config(SchedulerKind::kJaws);
    with.scheduler.jaws.job_aware = true;
    EngineConfig without = with;
    without.scheduler.jaws.job_aware = false;
    const workload::Workload w = small_workload(with, 80, 23);
    Engine ea(with), eb(without);
    const RunReport ra = ea.run(w);
    const RunReport rb = eb.run(w);
    // Job-awareness must not increase I/O (usually strictly decreases it).
    EXPECT_LE(ra.atom_reads, rb.atom_reads + rb.atom_reads / 20);
}

TEST(Engine, CachePolicySelectionWired) {
    for (const CachePolicy policy :
         {CachePolicy::kLru, CachePolicy::kLruK, CachePolicy::kSlru, CachePolicy::kUrc}) {
        EngineConfig config = small_config(SchedulerKind::kJaws);
        config.cache.policy = policy;
        Engine engine(config);
        const RunReport report = engine.run(small_workload(config, 10));
        EXPECT_GT(report.queries, 0u);
        EXPECT_FALSE(report.cache_policy.empty());
    }
}

TEST(Engine, BatchSchedulersShareMoreThanNoShare) {
    EngineConfig noshare = small_config(SchedulerKind::kNoShare);
    EngineConfig jaws = small_config(SchedulerKind::kJaws);
    const workload::Workload w = small_workload(noshare, 80, 29);
    Engine en(noshare), ej(jaws);
    const RunReport rn = en.run(w);
    const RunReport rj = ej.run(w);
    EXPECT_LT(rj.atom_reads, rn.atom_reads);
}

TEST(Engine, SpeedupIncreasesResponseTimes) {
    EngineConfig config = small_config(SchedulerKind::kNoShare);
    workload::Workload base = small_workload(config, 60, 31);
    workload::Workload fast = base;
    workload::apply_speedup(fast, 8.0);
    Engine ea(config), eb(config);
    const RunReport slow = ea.run(base);
    const RunReport quick = eb.run(fast);
    EXPECT_GT(quick.mean_response_ms, slow.mean_response_ms * 0.9);
}

TEST(Engine, AdaptiveAlphaMovesUnderLoad) {
    EngineConfig config = small_config(SchedulerKind::kJaws);
    config.scheduler.jaws.adaptive_alpha = true;
    config.scheduler.jaws.alpha.initial_alpha = 0.5;
    config.run_length = 40;
    workload::Workload w = small_workload(config, 100, 37);
    workload::apply_speedup(w, 8.0);  // heavy saturation
    Engine engine(config);
    const RunReport report = engine.run(w);
    // Under sustained saturation the controller should have moved alpha away
    // from its initial value (typically towards contention, i.e. below 0.5).
    EXPECT_NE(report.final_alpha, 0.5);
}


TEST(Engine, TimelineCollectsWindows) {
    EngineConfig config = small_config(SchedulerKind::kJaws);
    config.timeline_window_s = 30.0;
    const workload::Workload w = small_workload(config, 40, 3);
    Engine engine(config);
    const RunReport report = engine.run(w);
    ASSERT_FALSE(report.timeline.empty());
    std::uint64_t completions = 0;
    util::SimTime last = util::SimTime::from_micros(-1);
    for (const auto& point : report.timeline) {
        completions += point.completions;
        ASSERT_GT(point.window_end.raw_micros(), last.raw_micros());
        last = point.window_end;
        ASSERT_GE(point.cache_hit_rate, 0.0);
        ASSERT_LE(point.cache_hit_rate, 1.0);
        ASSERT_GE(point.alpha, 0.0);
        ASSERT_LE(point.alpha, 1.0);
    }
    EXPECT_EQ(completions, report.queries);
}

TEST(Engine, TimelineDisabledByDefault) {
    const EngineConfig config = small_config(SchedulerKind::kNoShare);
    const workload::Workload w = small_workload(config, 10);
    Engine engine(config);
    EXPECT_TRUE(engine.run(w).timeline.empty());
}

/// The message of the std::invalid_argument `run` throws ("" if none).
template <typename Run>
std::string rejection(Run run) {
    try {
        run();
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return "";
}

TEST(Engine, RejectsJobsOutOfArrivalOrder) {
    const EngineConfig config = small_config(SchedulerKind::kNoShare);
    workload::Workload w = small_workload(config, 6, 7);
    std::reverse(w.jobs.begin(), w.jobs.end());
    const std::string what = rejection([&] { Engine(config).run(w); });
    // The first job listed after a later one is the second of the reversed
    // list.
    EXPECT_NE(what.find("Engine::run: job " + std::to_string(w.jobs[1].id) + " arrives"),
              std::string::npos)
        << what;

    // Equal arrivals are in order.
    std::reverse(w.jobs.begin(), w.jobs.end());
    w.jobs[1].arrival = w.jobs[0].arrival;
    EXPECT_EQ(Engine(config).run(w).queries, w.total_queries());
}

TEST(Engine, RejectsFootprintEntriesBeyond32BitCounts) {
    // One hand-built query whose single footprint entry claims the count;
    // no position is materialised, so nothing large is allocated.
    const EngineConfig config = small_config(SchedulerKind::kJaws);
    const auto one_entry = [](std::uint64_t positions) {
        workload::Workload w;
        workload::Job& job = w.jobs.emplace_back();
        job.id = 1;
        workload::Query& q = job.queries.emplace_back();
        q.id = 77;
        q.job = job.id;
        q.footprint.push_back({storage::AtomId{0, 3}, positions});
        return w;
    };
    const std::string what =
        rejection([&] { Engine(config).run(one_entry(workload::kMaxAtomPositions + 1)); });
    EXPECT_NE(what.find("query 77"), std::string::npos) << what;

    // The largest count a sub-query holds runs, and every position counts.
    const RunReport report = Engine(config).run(one_entry(workload::kMaxAtomPositions));
    EXPECT_EQ(report.queries, 1u);
    EXPECT_EQ(report.positions, workload::kMaxAtomPositions);
}

}  // namespace
}  // namespace jaws::core
