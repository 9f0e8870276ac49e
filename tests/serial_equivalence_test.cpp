// Serial-equivalence regression for the event kernel (core/engine.h).
//
// The engine was rewritten from an implicit-clock serial loop into a
// discrete-event pipeline over modeled disk/CPU resources. The refactor's
// contract: with io_depth = 1 and compute_workers = 1 the event-ordered
// execution reproduces the old strictly-serial semantics *bit-for-bit*. The
// golden numbers below were captured by running the pre-refactor engine
// (commit daebd9b, the last serial engine) on this exact fixture; every
// integer field must match exactly and every derived double to float
// precision. If this test breaks, the kernel's event ordering diverged from
// the serial schedule — that is a bug even if throughput "improved".
//
// The second half checks the point of the refactor: on a saturated,
// I/O-bound workload a deeper pipeline strictly shortens the makespan and
// reports genuine I/O-compute overlap, while doing the identical work.
#include <gtest/gtest.h>

#include "core/engine.h"
#include "workload/generator.h"

namespace jaws::core {
namespace {

EngineConfig fixture_config(SchedulerKind kind) {
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

workload::Workload fixture_workload(const EngineConfig& config) {
    workload::WorkloadSpec spec;
    spec.jobs = 40;
    spec.seed = 3;
    const field::SyntheticField field(config.field);
    return workload::generate_workload(spec, config.grid, field);
}

struct Golden {
    SchedulerKind kind;
    std::int64_t makespan_us;
    double throughput_qps;
    double busy_throughput_qps;
    std::uint64_t cache_hits;
    std::uint64_t cache_misses;
    std::uint64_t atom_reads;
    std::uint64_t support_reads;
    double mean_response_ms;
    std::int64_t idle_us;
};

// Captured from the pre-refactor serial engine on the fixture above, then
// re-pinned once when SimTime::from_millis/from_seconds switched from
// truncation to round-to-nearest: the 1/1 pipeline still reproduces the
// serial schedule bit-for-bit, but every modeled duration is now up to 1 us
// longer, which shifts the absolute timings (and, through eviction timing, a
// handful of cache counters) by a few ppm.
constexpr Golden kGoldens[] = {
    {SchedulerKind::kNoShare, 544246896, 2.623809176488, 7.704911639447, 41720, 43609,
     18076, 25533, 13221.418023109238, 358910572},
    {SchedulerKind::kLifeRaft, 558359694, 2.557491193123, 9.263224407501, 12184, 15408,
     6141, 9267, 2352.186577030813, 404201710},
    {SchedulerKind::kJaws, 545061129, 2.619889630765, 14.350468838258, 14386, 14226,
     6102, 8124, 1443.275448879554, 445552185},
};

TEST(SerialEquivalence, DefaultDepthReproducesTheSerialEngineExactly) {
    for (const Golden& g : kGoldens) {
        const EngineConfig c = fixture_config(g.kind);
        ASSERT_EQ(c.io_depth, 1u);
        ASSERT_EQ(c.compute_workers, 1u);
        const workload::Workload w = fixture_workload(c);
        Engine engine(c);
        const RunReport r = engine.run(w);
        SCOPED_TRACE(r.scheduler_name);
        EXPECT_EQ(r.makespan.raw_micros(), g.makespan_us);
        EXPECT_EQ(r.idle_time.raw_micros(), g.idle_us);
        EXPECT_EQ(r.cache.hits, g.cache_hits);
        EXPECT_EQ(r.cache.misses, g.cache_misses);
        EXPECT_EQ(r.atom_reads, g.atom_reads);
        EXPECT_EQ(r.support_reads, g.support_reads);
        EXPECT_NEAR(r.throughput_qps, g.throughput_qps, 1e-6);
        EXPECT_NEAR(r.busy_throughput_qps, g.busy_throughput_qps, 1e-6);
        EXPECT_NEAR(r.mean_response_ms, g.mean_response_ms, 1e-6);
    }
}

struct PolicyGolden {
    CachePolicy policy;
    std::int64_t makespan_us;
    std::uint64_t cache_hits;
    std::uint64_t cache_misses;
    std::uint64_t evictions;
    std::uint64_t atom_reads;
    double mean_response_ms;
};

// The Table I policies other than LRU-K (the kJaws row above) under JAWS on
// the same fixture, pinned so that a policy's data structures can change
// without its eviction order doing so.
constexpr PolicyGolden kPolicyGoldens[] = {
    {CachePolicy::kLru, 544414518, 17982, 10914, 5661, 5693, 1351.106955882353},
    {CachePolicy::kSlru, 544234333, 17778, 11097, 5733, 5765, 1368.440857142857},
    {CachePolicy::kTwoQ, 544399967, 16795, 12067, 5952, 5984, 1362.794251400563},
    {CachePolicy::kUrc, 544324761, 17883, 11046, 5651, 5683, 1361.123698179272},
};

TEST(SerialEquivalence, EachCachePolicyReproducesItsPinnedRun) {
    for (const PolicyGolden& g : kPolicyGoldens) {
        EngineConfig c = fixture_config(SchedulerKind::kJaws);
        c.cache.policy = g.policy;
        const workload::Workload w = fixture_workload(c);
        Engine engine(c);
        const RunReport r = engine.run(w);
        SCOPED_TRACE(r.cache_policy);
        EXPECT_EQ(r.makespan.raw_micros(), g.makespan_us);
        EXPECT_EQ(r.cache.hits, g.cache_hits);
        EXPECT_EQ(r.cache.misses, g.cache_misses);
        EXPECT_EQ(r.cache.evictions, g.evictions);
        EXPECT_EQ(r.atom_reads, g.atom_reads);
        EXPECT_NEAR(r.mean_response_ms, g.mean_response_ms, 1e-6);
    }
}

TEST(SerialEquivalence, FaultyRunReproducesRetryAndBackoffAccountingExactly) {
    EngineConfig c = fixture_config(SchedulerKind::kJaws);
    c.faults.seed = 1234;
    c.faults.transient_error_rate = 0.25;
    c.faults.latency_spike_rate = 0.25;
    c.faults.latency_spike_mean_ms = 80.0;
    const workload::Workload w = fixture_workload(c);
    Engine engine(c);
    const RunReport r = engine.run(w);
    // Pre-refactor serial engine on the same faulty fixture (re-pinned with
    // the SimTime rounding fix, same as kGoldens above).
    EXPECT_EQ(r.makespan.raw_micros(), 582002734);
    EXPECT_EQ(r.read_retries, 2064u);
    EXPECT_EQ(r.read_failures, 36u);
    EXPECT_EQ(r.degraded_queries, 54u);
    EXPECT_EQ(r.retry_backoff_time.raw_micros(), 13855000);
    EXPECT_EQ(r.atom_reads, 6184u);
}

TEST(SerialEquivalence, SerialPipelineNeverOverlapsIoAndCompute) {
    // At 1/1 the pipeline window forces read -> evaluate -> next read, so the
    // disk and the CPU pool must never be busy at the same instant.
    const EngineConfig c = fixture_config(SchedulerKind::kJaws);
    const workload::Workload w = fixture_workload(c);
    Engine engine(c);
    const RunReport r = engine.run(w);
    EXPECT_EQ(r.overlap_time.raw_micros(), 0);
    EXPECT_EQ(r.overlap_fraction, 0.0);
    EXPECT_EQ(r.io_depth, 1u);
    EXPECT_EQ(r.compute_workers, 1u);
    EXPECT_GT(r.disk_busy_time.raw_micros(), 0);
    EXPECT_GT(r.cpu_busy_time.raw_micros(), 0);
    // With zero overlap, busy intervals are disjoint and fit in the non-idle
    // span (the remainder is dispatch overhead and retry backoff, which
    // occupy neither resource).
    EXPECT_LE(r.disk_busy_time.raw_micros() + r.cpu_busy_time.raw_micros(),
              r.makespan.raw_micros() - r.idle_time.raw_micros());
}

// A dense, cold-cache workload where nearly every batch item needs a disk
// read: the regime where pipelining reads against evaluation pays.
EngineConfig saturated_config(std::size_t io_depth, std::size_t workers) {
    EngineConfig c = fixture_config(SchedulerKind::kJaws);
    c.cache.capacity_atoms = 16;
    c.io_depth = io_depth;
    c.compute_workers = workers;
    return c;
}

workload::Workload saturated_workload(const EngineConfig& config) {
    workload::WorkloadSpec spec;
    spec.jobs = 24;
    spec.seed = 11;
    spec.mean_burst_gap_s = 0.05;        // everything arrives almost at once
    spec.mean_jobs_per_burst = 8.0;
    spec.mean_intra_burst_gap_s = 0.05;
    spec.mean_think_time_s = 0.01;
    spec.frac_single_step = 1.0;         // unordered batches: no chain gating
    spec.frac_ordered_single_step = 0.0;
    const field::SyntheticField field(config.field);
    return workload::generate_workload(spec, config.grid, field);
}

TEST(OverlappedIo, DeeperPipelineStrictlyShortensAnIoBoundRun) {
    const EngineConfig serial = saturated_config(1, 1);
    const workload::Workload w = saturated_workload(serial);
    Engine e1(serial);
    const RunReport r1 = e1.run(w);
    Engine e4(saturated_config(4, 2));
    const RunReport r4 = e4.run(w);

    EXPECT_LT(r4.makespan.raw_micros(), r1.makespan.raw_micros());
    EXPECT_GT(r4.overlap_fraction, 0.0);
    EXPECT_GT(r4.overlap_time.raw_micros(), 0);
    EXPECT_EQ(r1.overlap_time.raw_micros(), 0);
    // The pipeline reorders work in time, never in substance.
    EXPECT_EQ(r4.positions, r1.positions);
    EXPECT_EQ(r4.subqueries, r1.subqueries);
    EXPECT_EQ(r4.queries, r1.queries);
}

TEST(OverlappedIo, ReportEchoesConfiguredDepths) {
    Engine engine(saturated_config(4, 2));
    const RunReport r = engine.run(saturated_workload(saturated_config(4, 2)));
    EXPECT_EQ(r.io_depth, 4u);
    EXPECT_EQ(r.compute_workers, 2u);
    EXPECT_GE(r.disk_busy_time.raw_micros(), r.overlap_time.raw_micros());
    EXPECT_GE(r.cpu_busy_time.raw_micros(), r.overlap_time.raw_micros());
    EXPECT_GT(r.disk_utilization, 0.0);
    EXPECT_GT(r.cpu_utilization, 0.0);
    EXPECT_LE(r.disk_utilization, 1.0);
    EXPECT_LE(r.cpu_utilization, 1.0);
}

TEST(OverlappedIo, DepthSweepIsMonotoneOnTheSaturatedFixture) {
    const workload::Workload w = saturated_workload(saturated_config(1, 1));
    std::int64_t prev = INT64_MAX;
    for (const std::size_t depth : {1u, 2u, 4u}) {
        Engine engine(saturated_config(depth, 2));
        const RunReport r = engine.run(w);
        EXPECT_LE(r.makespan.raw_micros(), prev) << "io_depth=" << depth;
        prev = r.makespan.raw_micros();
    }
}

}  // namespace
}  // namespace jaws::core
