// The paper's evaluation shapes (Figs. 10-12, Table I), asserted on the very
// runs the benches print: each test calls the experiment library
// (bench/experiments.h) at the bench's default scale. Claims are
// inequalities with a stated margin, not goldens, so a change that moves
// the numbers but keeps the paper's ordering passes, and one that breaks
// the ordering fails. The two known deviations (DESIGN.md, "Known
// deviations") are pinned as deviations, each at the scale it was measured.
// One TEST per figure lets `ctest -j` spread them. These are the
// `bench_scale` ctest label; the sanitizer and audit legs leave them out.
#include <gtest/gtest.h>

#include <thread>

#include "experiments.h"

namespace jaws::bench {
namespace {

std::size_t threads() { return std::thread::hardware_concurrency(); }

double tp(const core::RunReport& r) { return r.busy_throughput_qps; }

// Fig. 10 at 400 jobs: NoShare < LifeRaft_1 < LifeRaft_2 <= JAWS_1 < JAWS_2
// (1.623 / 2.118 / 2.299 / 2.372 / 2.728 q/s when pinned).
TEST(Shapes, Fig10SystemsOrderAsInThePaper) {
    const Experiment fig = fig10(400, threads());
    const auto& r = fig.runs;
    EXPECT_GT(tp(r[1]), 1.15 * tp(r[0])) << "LifeRaft_1 over NoShare by > 15 %";
    EXPECT_GT(tp(r[2]), 1.04 * tp(r[1])) << "LifeRaft_2 over LifeRaft_1 by > 4 %";
    EXPECT_GE(tp(r[3]), tp(r[2])) << "JAWS_1 at least LifeRaft_2";
    EXPECT_GT(tp(r[4]), 1.08 * tp(r[3])) << "JAWS_2 over JAWS_1 by > 8 %";
}

// Known deviation at the paper's scale (1000 jobs): two-level scheduling
// without job-awareness falls just below LifeRaft_2 (2.768 vs 2.809 q/s).
// If this starts failing, the deviation is gone: update DESIGN.md and
// EXPERIMENTS.md, then turn this into a shape claim.
TEST(Shapes, Fig10Jaws1BelowLifeRaft2AtPaperScaleDeviation) {
    const Experiment fig = fig10(1000, threads());
    EXPECT_LT(tp(fig.runs[3]), tp(fig.runs[2]));
}

// Fig. 11 at 250 jobs: at every speed-up JAWS_2 has the highest throughput
// and the lowest mean response time, NoShare the highest mean response time;
// NoShare's throughput falls from the lowest saturation to the highest
// (1.484 -> 1.326 q/s when pinned).
TEST(Shapes, Fig11Jaws2LeadsAndNoShareTrailsAtEverySaturation) {
    const Experiment fig = fig11(250, threads());
    constexpr std::size_t systems = std::size(kFig11Systems);
    constexpr std::size_t noshare = 0, jaws2 = systems - 1;
    for (std::size_t i = 0; i < std::size(kFig11Speedups); ++i) {
        SCOPED_TRACE(testing::Message() << "speed-up " << kFig11Speedups[i]);
        const core::RunReport* row = &fig.runs[i * systems];
        for (std::size_t s = 0; s < jaws2; ++s) {
            SCOPED_TRACE(kFig11Systems[s]);
            EXPECT_GT(tp(row[jaws2]), 1.08 * tp(row[s])) << "JAWS_2 throughput ahead by > 8 %";
            EXPECT_LT(row[jaws2].mean_response_ms, 0.95 * row[s].mean_response_ms)
                << "JAWS_2 response time below by > 5 %";
            if (s != noshare) {
                EXPECT_GT(row[noshare].mean_response_ms, 1.5 * row[s].mean_response_ms)
                    << "NoShare response time above by > 50 %";
            }
        }
    }
    const double lowest = tp(fig.runs[noshare]);
    const double highest = tp(fig.runs[(std::size(kFig11Speedups) - 1) * systems + noshare]);
    EXPECT_LT(highest, 0.95 * lowest) << "NoShare throughput falls by > 5 %";
}

// Fig. 12 at 200 jobs: k = 1 has the lowest throughput (1.731 q/s against
// 1.987 at k = 2 when pinned). Known deviation at this scale: the best k is
// 80, past the paper's optimum of 10-15, because the cache-flushing penalty
// of large batches is weaker here than in production.
TEST(Shapes, Fig12SingleAtomBatchIsSlowestAndBestKIs80Deviation) {
    const Experiment fig = fig12(200, threads());
    const double k1 = tp(fig.runs[1]);
    for (std::size_t i = 1; i < std::size(kFig12Ks); ++i) {
        SCOPED_TRACE(testing::Message() << "k = " << kFig12Ks[i]);
        EXPECT_LT(k1, 0.92 * tp(fig.runs[1 + i])) << "k = 1 below by > 8 %";
    }
    EXPECT_EQ(fig12_best_k(fig), 80u);
}

// Table I at 300 jobs: SLRU and URC beat LRU-K on busy seconds per query
// (0.392 and 0.394 against 0.423 when pinned).
TEST(Shapes, Table1WorkloadAwarePoliciesBeatLruK) {
    const Experiment table = table1(300, threads());
    const auto seconds_per_query = [&](std::size_t i) { return 1.0 / tp(table.runs[i]); };
    constexpr std::size_t lruk = 1, slru = 2, urc = 4;
    EXPECT_LT(seconds_per_query(slru), 0.97 * seconds_per_query(lruk)) << "SLRU by > 3 %";
    EXPECT_LT(seconds_per_query(urc), 0.97 * seconds_per_query(lruk)) << "URC by > 3 %";
}

}  // namespace
}  // namespace jaws::bench
