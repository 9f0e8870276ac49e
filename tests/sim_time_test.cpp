// Tests for virtual time (util/sim_time.h).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <type_traits>

#include "util/contracts.h"
#include "util/sim_time.h"

namespace jaws::util {
namespace {

// The tick count is private: no code outside the class reads or writes it,
// or builds a SimTime from a bare integer, so every caller goes through the
// saturating operators and the named factories. The layout stays one int64.
template <class T>
concept ExposesTicks = requires(T t) { t.micros; };
static_assert(!ExposesTicks<SimTime>);
static_assert(!std::is_constructible_v<SimTime, std::int64_t>);
static_assert(sizeof(SimTime) == sizeof(std::int64_t));
static_assert(std::is_trivially_copyable_v<SimTime>);

TEST(SimTime, Conversions) {
    EXPECT_EQ(SimTime::from_seconds(1.5).raw_micros(), 1'500'000);
    EXPECT_EQ(SimTime::from_millis(2.5).raw_micros(), 2'500);
    EXPECT_DOUBLE_EQ(SimTime::from_micros(3'000'000).seconds(), 3.0);
    EXPECT_DOUBLE_EQ(SimTime::from_micros(1'500).millis(), 1.5);
}

TEST(SimTime, ConversionsRoundToNearestMicrosecond) {
    // Truncation used to drop up to 1 us per conversion: 0.0024 ms is 2.4 us
    // and must round to 2, not chop through intermediate float error; 2.6 us
    // rounds up to 3. Same for seconds.
    EXPECT_EQ(SimTime::from_millis(0.0024).raw_micros(), 2);
    EXPECT_EQ(SimTime::from_millis(0.0026).raw_micros(), 3);
    EXPECT_EQ(SimTime::from_millis(0.9999).raw_micros(), 1'000);
    EXPECT_EQ(SimTime::from_seconds(0.9999996).raw_micros(), 1'000'000);
    EXPECT_EQ(SimTime::from_seconds(1e-7).raw_micros(), 0);
    // Half-way cases round away from zero (llround semantics), including for
    // negative spans.
    EXPECT_EQ(SimTime::from_millis(0.0005).raw_micros(), 1);
    EXPECT_EQ(SimTime::from_millis(-0.0005).raw_micros(), -1);
    EXPECT_EQ(SimTime::from_millis(-0.0024).raw_micros(), -2);
    // 86.9 ms of exponential think time (a value the generator actually
    // produces) keeps its nearest microsecond.
    EXPECT_EQ(SimTime::from_seconds(0.0869995).raw_micros(), 87'000);
}

TEST(SimTime, Arithmetic) {
    const SimTime a = SimTime::from_millis(5);
    const SimTime b = SimTime::from_millis(3);
    EXPECT_EQ((a + b).raw_micros(), 8'000);
    EXPECT_EQ((a - b).raw_micros(), 2'000);
    SimTime c = a;
    c += b;
    EXPECT_EQ(c.raw_micros(), 8'000);
}

TEST(SimTime, Comparisons) {
    EXPECT_LT(SimTime::from_millis(1), SimTime::from_millis(2));
    EXPECT_EQ(SimTime::zero(), SimTime::from_micros(0));
    EXPECT_GE(SimTime::from_seconds(1), SimTime::from_millis(1000));
}

TEST(SimTime, ToStringPicksUnits) {
    EXPECT_EQ(to_string(SimTime::from_micros(12)), "12us");
    EXPECT_EQ(to_string(SimTime::from_millis(12)), "12ms");
    EXPECT_NE(to_string(SimTime::from_seconds(2)).find("s"), std::string::npos);
}

TEST(SimTime, RealConversionsSaturateInsteadOfOverflowing) {
    // Fuzz-pinned (fuzz/fuzz_config.cpp): heavy-tail pricing can hand
    // from_millis/from_seconds non-finite or astronomically large reals;
    // llround on those is UB, so the conversions saturate to the int64
    // extremes (and map NaN to zero) instead.
    constexpr double inf = std::numeric_limits<double>::infinity();
    constexpr std::int64_t lo = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t hi = std::numeric_limits<std::int64_t>::max();
    EXPECT_EQ(SimTime::from_seconds(inf).raw_micros(), hi);
    EXPECT_EQ(SimTime::from_millis(inf).raw_micros(), hi);
    EXPECT_EQ(SimTime::from_seconds(-inf).raw_micros(), lo);
    EXPECT_EQ(SimTime::from_millis(-1e300).raw_micros(), lo);
    EXPECT_EQ(SimTime::from_seconds(1e300).raw_micros(), hi);
    EXPECT_EQ(
        SimTime::from_millis(std::numeric_limits<double>::quiet_NaN()).raw_micros(),
        0);
    // Values inside the representable band still round to nearest.
    EXPECT_EQ(SimTime::from_millis(2.0004).raw_micros(), 2'000);
}

// Deliberate saturations below trip JAWS_INVARIANT in audit builds, whose
// default handler aborts; swallow the reports so the same tests pass in
// every preset (release builds never generate any).
class SimTimeSaturation : public ::testing::Test {
  protected:
    static void swallow(const char*, int, const char*, const char*) {}
    void SetUp() override { prev_ = set_contract_handler(&swallow); }
    void TearDown() override { set_contract_handler(prev_); }

  private:
    ContractHandler prev_ = nullptr;
};

TEST_F(SimTimeSaturation, AdditionSaturatesAtInt64Rails) {
    // ISSUE 9 regression: these inputs used to be signed-overflow UB. The
    // exact boundary is fine; one past it clamps to the rail the overflow
    // was heading for.
    const SimTime one = SimTime::from_micros(1);
    EXPECT_EQ(SimTime::max() + one, SimTime::max());
    EXPECT_EQ(SimTime::max() + SimTime::max(), SimTime::max());
    EXPECT_EQ(SimTime::min() + SimTime::from_micros(-1), SimTime::min());
    EXPECT_EQ(SimTime::min() + SimTime::min(), SimTime::min());
    EXPECT_EQ((SimTime::max() + SimTime::from_micros(-1)).raw_micros(),
              std::numeric_limits<std::int64_t>::max() - 1);
    EXPECT_EQ(SimTime::from_micros(
                  std::numeric_limits<std::int64_t>::max() - 1) + one,
              SimTime::max());
}

TEST_F(SimTimeSaturation, SubtractionSaturatesAtInt64Rails) {
    const SimTime one = SimTime::from_micros(1);
    EXPECT_EQ(SimTime::min() - one, SimTime::min());
    EXPECT_EQ(SimTime::max() - SimTime::from_micros(-1), SimTime::max());
    // -INT64_MIN is not representable: subtracting the minimum from
    // anything non-negative rails at max.
    EXPECT_EQ(SimTime::zero() - SimTime::min(), SimTime::max());
    EXPECT_EQ((SimTime::min() + one) - one, SimTime::min());
}

TEST_F(SimTimeSaturation, CompoundAssignSaturates) {
    SimTime t = SimTime::max();
    t += SimTime::from_seconds(1.0);
    EXPECT_EQ(t, SimTime::max());
    t -= SimTime::from_micros(-1);
    EXPECT_EQ(t, SimTime::max());
    SimTime u = SimTime::min();
    u -= SimTime::from_micros(1);
    EXPECT_EQ(u, SimTime::min());
}

TEST_F(SimTimeSaturation, ScaledBySaturatesWithSignCorrectRails) {
    const SimTime big = SimTime::from_micros(std::int64_t{1} << 40);
    EXPECT_EQ(big.scaled_by(std::int64_t{1} << 40), SimTime::max());
    EXPECT_EQ(big.scaled_by(-(std::int64_t{1} << 40)), SimTime::min());
    EXPECT_EQ(SimTime::from_micros(-(std::int64_t{1} << 40))
                  .scaled_by(std::int64_t{1} << 40),
              SimTime::min());
    EXPECT_EQ(SimTime::from_micros(-(std::int64_t{1} << 40))
                  .scaled_by(-(std::int64_t{1} << 40)),
              SimTime::max());
    EXPECT_EQ(SimTime::from_millis(2).scaled_by(3).raw_micros(), 6'000);
    EXPECT_EQ(SimTime::max().scaled_by(0), SimTime::zero());
}

TEST(SimTime, MinusClampedNeverGoesNegative) {
    const SimTime five = SimTime::from_millis(5);
    const SimTime three = SimTime::from_millis(3);
    EXPECT_EQ(five.minus_clamped(three).raw_micros(), 2'000);
    EXPECT_EQ(three.minus_clamped(five), SimTime::zero());
    // A negative charge is treated as zero charge, not as a credit.
    EXPECT_EQ(five.minus_clamped(SimTime::from_millis(-3)), five);
    EXPECT_EQ(SimTime::zero().minus_clamped(SimTime::min()), SimTime::zero());
}

TEST_F(SimTimeSaturation, CheckedSumSaturatesPairwise) {
    EXPECT_EQ(SimTime::checked_sum(SimTime::from_micros(100),
                                   SimTime::from_micros(200),
                                   SimTime::from_micros(3))
                  .raw_micros(),
              303);
    EXPECT_EQ(SimTime::checked_sum(SimTime::max(), SimTime::max(),
                                   SimTime::from_micros(1)),
              SimTime::max());
    EXPECT_EQ(SimTime::checked_sum(SimTime::from_micros(7)).raw_micros(), 7);
}

TEST_F(SimTimeSaturation, RetryBackoffNearSaturationBoundStaysPinned) {
    // ISSUE 9 regression: exponential backoff priced through
    // from_real_micros lands on the rail, and further doubling or adding
    // think time must stay there instead of wrapping negative.
    SimTime backoff = SimTime::from_real_micros(9.3e18);
    EXPECT_EQ(backoff, SimTime::max());
    backoff = backoff.scaled_by(2);
    EXPECT_EQ(backoff, SimTime::max());
    backoff += SimTime::from_seconds(30.0);
    EXPECT_EQ(backoff, SimTime::max());
}

#if defined(JAWS_AUDIT_BUILD) && JAWS_AUDIT_BUILD
TEST(SimTimeAudit, SaturationReportsContractViolations) {
    // Audit builds trap-and-report each saturation through the contract
    // handler (then still clamp); swallow the reports so the test survives.
    struct Guard {
        static void swallow(const char*, int, const char*, const char*) {}
        ContractHandler prev = set_contract_handler(&swallow);
        ~Guard() { set_contract_handler(prev); }
    } guard;
    const std::uint64_t before = contract_violations();
    EXPECT_EQ(SimTime::max() + SimTime::from_micros(1), SimTime::max());
    EXPECT_EQ(SimTime::min() - SimTime::from_micros(1), SimTime::min());
    EXPECT_EQ(SimTime::max().scaled_by(2), SimTime::max());
    EXPECT_EQ(contract_violations(), before + 3);
}
#else
TEST(SimTimeAudit, SaturationIsSilentInReleaseBuilds) {
    // Release builds clamp without reporting: saturation is a defined,
    // documented result, not a runtime error.
    const std::uint64_t before = contract_violations();
    EXPECT_EQ(SimTime::max() + SimTime::from_micros(1), SimTime::max());
    EXPECT_EQ(SimTime::max().scaled_by(2), SimTime::max());
    EXPECT_EQ(contract_violations(), before);
}
#endif

}  // namespace
}  // namespace jaws::util
