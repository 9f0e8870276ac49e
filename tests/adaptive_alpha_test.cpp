// Tests for the adaptive age-bias controller (sched/adaptive_alpha.h).
#include <gtest/gtest.h>

#include "sched/adaptive_alpha.h"

namespace jaws::sched {
namespace {

AdaptiveAlphaConfig config(double smoothing = 1.0) {
    AdaptiveAlphaConfig c;
    c.initial_alpha = 0.5;
    c.smoothing = smoothing;  // 1.0 disables EWMA memory for exact rule tests
    c.stall_epsilon = 0.001;
    c.explore_step = 0.08;
    return c;
}

/// Feed one run of `n` completions with the given constant response time,
/// ending at absolute time `end_s` (throughput = n / (end_s - start_s)), and
/// close it at that instant, as the engine does after its run_length-th
/// completion.
void feed_run(AdaptiveAlphaController& c, std::size_t n, double rt_ms, double start_s,
              double end_s) {
    for (std::size_t i = 0; i < n; ++i) {
        const double t = start_s + (end_s - start_s) * static_cast<double>(i + 1) /
                                       static_cast<double>(n);
        c.on_query_completed(util::SimTime::from_millis(rt_ms),
                             util::SimTime::from_seconds(t));
    }
    c.close_run(util::SimTime::from_seconds(end_s));
}

TEST(AdaptiveAlpha, StartsAtInitial) {
    AdaptiveAlphaController c(config());
    EXPECT_DOUBLE_EQ(c.alpha(), 0.5);
    EXPECT_EQ(c.runs(), 0u);
}

TEST(AdaptiveAlpha, FirstRunOnlyPrimes) {
    AdaptiveAlphaController c(config());
    feed_run(c, 4, 100.0, 0.0, 10.0);
    EXPECT_DOUBLE_EQ(c.alpha(), 0.5);  // no previous run to compare against
}

TEST(AdaptiveAlpha, RuleOneDecreasesAlphaUnderRisingSaturation) {
    // rt doubles (ratio 2) while throughput stays flat (ratio 1):
    // alpha -= min(2 - 1, alpha) -> 0.5 - 0.5 = 0.
    AdaptiveAlphaController c(config());
    feed_run(c, 4, 100.0, 0.0, 10.0);   // rt 100, tp 0.4
    feed_run(c, 4, 200.0, 10.0, 20.0);  // rt 200, tp 0.4
    EXPECT_DOUBLE_EQ(c.alpha(), 0.0);
}

TEST(AdaptiveAlpha, RuleOnePartialDecrease) {
    // rt ratio 1.2, tp ratio 1.0 -> alpha -= 0.2.
    AdaptiveAlphaController c(config());
    feed_run(c, 4, 100.0, 0.0, 10.0);
    feed_run(c, 4, 120.0, 10.0, 20.0);
    EXPECT_NEAR(c.alpha(), 0.3, 1e-9);
}

TEST(AdaptiveAlpha, RuleTwoIncreasesAlphaUnderFallingSaturation) {
    // rt ratio 0.9 while tp ratio 0.5: alpha += min(0.4, 1 - alpha).
    AdaptiveAlphaController c(config());
    feed_run(c, 4, 100.0, 0.0, 10.0);        // tp 0.4
    feed_run(c, 4, 90.0, 20.0, 40.0);        // tp 0.2, rt 90
    EXPECT_NEAR(c.alpha(), 0.9, 1e-9);
}

TEST(AdaptiveAlpha, NoRuleFiresWhenThroughputKeepsUp) {
    // rt ratio 1.5, tp ratio 2.0 (>= rt ratio): neither rule applies.
    AdaptiveAlphaController c(config());
    feed_run(c, 4, 100.0, 0.0, 10.0);  // tp 0.4
    feed_run(c, 4, 150.0, 10.0, 15.0);  // tp 0.8
    EXPECT_DOUBLE_EQ(c.alpha(), 0.5);
}

TEST(AdaptiveAlpha, ClampsToZeroAndOne) {
    AdaptiveAlphaConfig cfg = config();
    cfg.initial_alpha = 0.1;
    AdaptiveAlphaController c(cfg);
    feed_run(c, 4, 100.0, 0.0, 10.0);
    feed_run(c, 4, 500.0, 10.0, 20.0);  // huge rt ratio -> clamp at 0
    EXPECT_DOUBLE_EQ(c.alpha(), 0.0);
    // Now tp collapse with improving rt -> rule 2 pushes up, clamped at 1.
    feed_run(c, 4, 50.0, 30.0, 130.0);
    EXPECT_LE(c.alpha(), 1.0);
}

TEST(AdaptiveAlpha, ExplorationAfterTwoFlatRuns) {
    AdaptiveAlphaController c(config());
    feed_run(c, 4, 100.0, 0.0, 10.0);
    feed_run(c, 4, 100.0, 10.0, 20.0);   // flat run 1
    feed_run(c, 4, 100.0, 20.0, 30.0);   // flat run 2 -> explore
    EXPECT_EQ(c.explorations(), 1u);
    EXPECT_NE(c.alpha(), 0.5);
}

TEST(AdaptiveAlpha, ExplorationReversesAtBounds) {
    AdaptiveAlphaConfig cfg = config();
    cfg.initial_alpha = 0.96;
    AdaptiveAlphaController c(cfg);
    double start = 0.0;
    // Keep the workload perfectly flat; exploration should bounce off 1.0
    // and come back down rather than sticking.
    for (int i = 0; i < 12; ++i) {
        feed_run(c, 4, 100.0, start, start + 10.0);
        start += 10.0;
    }
    EXPECT_GT(c.explorations(), 1u);
    EXPECT_LE(c.alpha(), 1.0);
    EXPECT_GE(c.alpha(), 0.0);
}

TEST(AdaptiveAlpha, EwmaSmoothsRatioSwings) {
    // With smoothing 0.2, one noisy run barely moves the smoothed ratios.
    AdaptiveAlphaConfig cfg = config(0.2);
    AdaptiveAlphaController c(cfg);
    feed_run(c, 4, 100.0, 0.0, 10.0);
    feed_run(c, 4, 200.0, 10.0, 20.0);  // raw rt ratio 2, smoothed much less
    EXPECT_GT(c.alpha(), 0.25);  // far milder than the unsmoothed drop to 0
    EXPECT_LT(c.alpha(), 0.5);
}

}  // namespace
}  // namespace jaws::sched
