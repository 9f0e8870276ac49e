// Tests for the experiment library (bench/experiments.h) at smoke scale:
// the cell runner, the benches' job-count parser, and the sanity claims of
// the tail and cluster-kernel sweeps. Every leg runs them, the thread
// sanitizer included; the paper's shapes at bench scale are in
// shapes_test.cpp.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "experiments.h"

namespace jaws::bench {
namespace {

/// The fields the figure benches print, plus the full response sample.
void expect_same_run(const core::RunReport& a, const core::RunReport& b) {
    EXPECT_EQ(a.scheduler_name, b.scheduler_name);
    EXPECT_EQ(a.queries, b.queries);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.busy_throughput_qps, b.busy_throughput_qps);
    EXPECT_EQ(a.mean_response_ms, b.mean_response_ms);
    EXPECT_EQ(a.p95_response_ms, b.p95_response_ms);
    EXPECT_EQ(a.response_ms, b.response_ms);
    EXPECT_EQ(a.cache.hits, b.cache.hits);
    EXPECT_EQ(a.cache.misses, b.cache.misses);
    EXPECT_EQ(a.atom_reads, b.atom_reads);
    EXPECT_EQ(a.final_alpha, b.final_alpha);
}

// Cells share one read-only trace across pool threads; the reports must come
// back in cell order and equal the serial run's, whatever the thread count.
TEST(Experiments, Fig10ReportsIdenticalAtOneAndFourThreads) {
    const Experiment serial = fig10(20, 1);
    const Experiment pooled = fig10(20, 4);
    EXPECT_EQ(serial.jobs, 20u);
    EXPECT_EQ(pooled.queries, serial.queries);
    ASSERT_EQ(serial.runs.size(), std::size(kFig10Systems));
    ASSERT_EQ(pooled.runs.size(), serial.runs.size());
    for (std::size_t i = 0; i < serial.runs.size(); ++i) {
        SCOPED_TRACE(kFig10Systems[i]);
        EXPECT_EQ(serial.runs[i].scheduler_name, kFig10Systems[i]);
        expect_same_run(serial.runs[i], pooled.runs[i]);
    }
}

TEST(Experiments, ParseJobsAcceptsOnlyAFullyConsumedPositiveInteger) {
    EXPECT_EQ(parse_jobs("1"), 1u);
    EXPECT_EQ(parse_jobs("400"), 400u);
    static_assert(workload::WorkloadSpec::kMaxJobs == 100'000);
    EXPECT_EQ(parse_jobs("100000"), workload::WorkloadSpec::kMaxJobs);
    // Above the bound a trace would not fit in memory: the largest
    // std::size_t used to pass here and abort in vector::reserve.
    for (const char* bad : {"", "0", "abc", "-5", "+5", " 5", "5 ", "12x", "1e3", "0x10",
                            "100001", "18446744073709551615", "18446744073709551616"})
        EXPECT_FALSE(parse_jobs(bad).has_value()) << '"' << bad << '"';
}

TEST(Experiments, JobsFromArgsFallsBackReadsEnvAndRejectsGarbage) {
    // Re-executes the binary for each death test: sanitizer runtimes keep a
    // thread of their own, which makes a plain fork() unsafe.
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    char program[] = "fig12_batch_size";
    char twelve[] = "12";
    char garbage[] = "abc";
    char negative[] = "-5";
    char huge[] = "18446744073709551615";
    char* none[] = {program, nullptr};
    char* good[] = {program, twelve, nullptr};
    char* bad[] = {program, garbage, nullptr};
    char* wrapped[] = {program, negative, nullptr};
    char* oversized[] = {program, huge, nullptr};

    unsetenv("JAWS_BENCH_JOBS");
    EXPECT_EQ(jobs_from_args(1, none, 200), 200u);
    EXPECT_EQ(jobs_from_args(2, good, 200), 12u);
    setenv("JAWS_BENCH_JOBS", "7", 1);
    EXPECT_EQ(jobs_from_args(1, none, 200), 7u);
    EXPECT_EQ(jobs_from_args(2, good, 200), 12u);  // argv wins
    unsetenv("JAWS_BENCH_JOBS");

    EXPECT_EXIT(jobs_from_args(2, bad, 200), testing::ExitedWithCode(2), "usage");
    EXPECT_EXIT(jobs_from_args(2, wrapped, 200), testing::ExitedWithCode(2), "usage");
    EXPECT_EXIT(jobs_from_args(2, oversized, 200), testing::ExitedWithCode(2), "usage");
    EXPECT_EXIT(
        {
            setenv("JAWS_BENCH_JOBS", "12x", 1);
            jobs_from_args(1, none, 200);
        },
        testing::ExitedWithCode(2), "usage");
}

TEST(Experiments, TailSweepTailPercentilesAreOrdered) {
    const TailSweep sweep = tail_sweep(10, std::thread::hardware_concurrency());
    ASSERT_EQ(sweep.rows.size(), 12u);
    for (const TailRow& row : sweep.rows) {
        SCOPED_TRACE(std::string(row.tail) + (row.hedged ? " hedged" : " unhedged"));
        EXPECT_GE(row.report.p999_response_ms, row.report.p99_response_ms);
    }
}

TEST(Experiments, ClusterKernelReplicasRelieveTheHotNodeAndAbsorbADeath) {
    const std::vector<ClusterRow> sweep =
        cluster_kernel(40, std::thread::hardware_concurrency());
    ASSERT_EQ(sweep.size(), 12u);
    const auto cell = [&](const char* skew, std::size_t replication, bool death) {
        for (const ClusterRow& row : sweep)
            if (std::strcmp(row.skew, skew) == 0 && row.replication == replication &&
                row.death == death)
                return row;
        ADD_FAILURE() << "no cell " << skew << " x" << replication << (death ? " death" : "");
        return ClusterRow{};
    };
    for (const ClusterRow& row : sweep) {
        if (row.replication == 1) {
            EXPECT_EQ(row.report.replica_reads, 0u) << row.skew;
        }
    }

    const ClusterRow hot1 = cell("hot-node", 1, false);
    const ClusterRow hot2 = cell("hot-node", 2, false);
    EXPECT_GT(replica_share(hot2.report), 0.0);
    EXPECT_LT(hot2.report.makespan, hot1.report.makespan);

    const ClusterRow absorb = cell("hot-node", 2, true);
    EXPECT_GE(absorb.report.failovers, 1u);
    EXPECT_EQ(absorb.report.lost_queries, 0u);
    EXPECT_GT(absorb.survivor_util_after, absorb.survivor_util_before);
}

}  // namespace
}  // namespace jaws::bench
