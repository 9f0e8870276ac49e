// Tests for the simulated disk (storage/disk_model.h).
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "storage/disk_model.h"

namespace jaws::storage {
namespace {

DiskSpec spec() {
    DiskSpec s;
    s.settle_ms = 1.0;
    s.seek_full_stroke_ms = 14.0;
    s.transfer_mb_per_s = 100.0;  // 1 MB = 10 ms
    return s;
}

/// Capacity of every test disk: a full-stroke seek crosses 100 MiB.
constexpr std::uint64_t kCapacity = 100ULL << 20;

// Pure transfer time of `bytes` under spec(): bytes / (100 MB/s), in ms.
double transfer_ms(std::uint64_t bytes) {
    return static_cast<double>(bytes) / (100.0 * 1e6) * 1e3;
}

TEST(DiskModel, SequentialReadPaysNoSeek) {
    DiskModel disk(spec(), kCapacity);
    disk.read(0, 1 << 20);  // head now at 1 MiB
    const util::SimTime cost = disk.read(1 << 20, 1 << 20);
    EXPECT_NEAR(cost.millis(), transfer_ms(1 << 20), 2e-3);  // SimTime quantises to us
}

TEST(DiskModel, FirstReadAtNonZeroOffsetSeeks) {
    DiskModel disk(spec(), kCapacity);
    const util::SimTime cost = disk.read(10 << 20, 1 << 20);
    EXPECT_GT(cost.millis(), transfer_ms(1 << 20) + 0.9);
}

TEST(DiskModel, SeekGrowsWithDistance) {
    DiskModel disk(spec(), kCapacity);
    disk.read(0, 1);  // park the head near 0
    const double near = disk.peek_cost(1 << 20, 1 << 20).millis();
    const double far = disk.peek_cost(90ULL << 20, 1 << 20).millis();
    EXPECT_GT(far, near);
}

TEST(DiskModel, FullStrokeBounded) {
    DiskModel disk(spec(), kCapacity);
    disk.read(0, 1);
    const double cost = disk.peek_cost(100ULL << 20, 1 << 20).millis();
    // settle + full stroke + transfer.
    EXPECT_NEAR(cost, 1.0 + 14.0 + transfer_ms(1 << 20), 0.6);
}

TEST(DiskModel, TransferProportionalToBytes) {
    DiskModel disk(spec(), kCapacity);
    const double one = disk.read(0, 1 << 20).millis();
    DiskModel disk2(spec(), kCapacity);
    const double four = disk2.read(0, 4 << 20).millis();
    EXPECT_NEAR(four, 4.0 * one, 5e-3);
}

TEST(DiskModel, PeekDoesNotMoveHead) {
    DiskModel disk(spec(), kCapacity);
    disk.read(0, 1 << 20);
    const double peeked = disk.peek_cost(50ULL << 20, 1 << 20).millis();
    EXPECT_DOUBLE_EQ(disk.peek_cost(50ULL << 20, 1 << 20).millis(), peeked);
    EXPECT_EQ(disk.stats().requests, 1u);
}

TEST(DiskModel, PeekMatchesRead) {
    DiskModel disk(spec(), kCapacity);
    disk.read(0, 1 << 20);
    const double peeked = disk.peek_cost(7 << 20, 2 << 20).millis();
    EXPECT_DOUBLE_EQ(disk.read(7 << 20, 2 << 20).millis(), peeked);
}

TEST(DiskModel, StatsAccounting) {
    DiskModel disk(spec(), kCapacity);
    disk.read(0, 1 << 20);
    disk.read(1 << 20, 1 << 20);  // sequential
    disk.read(50 << 20, 1 << 20);
    const DiskStats& s = disk.stats();
    EXPECT_EQ(s.requests, 3u);
    EXPECT_EQ(s.sequential_requests, 2u);  // the first read starts at head 0
    EXPECT_EQ(s.bytes_read, 3u << 20);
    EXPECT_GT(s.service_time.millis(), 0.0);
    // No fault injector attached: all busy time is rendered service.
    EXPECT_EQ(s.fault_delay.raw_micros(), 0);
    EXPECT_EQ(s.total_busy().raw_micros(), s.service_time.raw_micros());
}

TEST(DiskModel, ChargeDelayIsDisjointFromServiceTime) {
    DiskModel disk(spec(), kCapacity);
    disk.read(0, 1 << 20);
    const util::SimTime service = disk.stats().service_time;
    disk.charge_delay(util::SimTime::from_millis(80.0));
    const DiskStats& s = disk.stats();
    EXPECT_EQ(s.service_time.raw_micros(), service.raw_micros());  // unchanged
    EXPECT_EQ(s.fault_delay.raw_micros(), util::SimTime::from_millis(80.0).raw_micros());
    EXPECT_EQ(s.total_busy().raw_micros(), (service + s.fault_delay).raw_micros());
}

TEST(DiskModel, ChannelsKeepIndependentHeads) {
    DiskModel disk(spec(), kCapacity, /*channels=*/2);
    disk.read(0, 1 << 20, util::ChannelIndex{0});  // channel 0 head at 1 MiB
    // Channel 1's head is still parked at 0: the same sequential-continuation
    // read is cheap on channel 0 but pays a seek on channel 1.
    const double chan0 = disk.peek_cost(1 << 20, 1 << 20, util::ChannelIndex{0}).millis();
    const double chan1 = disk.peek_cost(1 << 20, 1 << 20, util::ChannelIndex{1}).millis();
    EXPECT_NEAR(chan0, transfer_ms(1 << 20), 2e-3);
    EXPECT_GT(chan1, chan0 + 0.9);  // settle_ms at least
}

TEST(DiskModel, ChannelOutOfRangeThrows) {
    DiskModel disk(spec(), kCapacity, /*channels=*/2);
    EXPECT_THROW(disk.read(0, 1 << 20, util::ChannelIndex{2}), std::out_of_range);
    EXPECT_THROW(disk.peek_cost(0, 1 << 20, util::ChannelIndex{7}), std::out_of_range);
}

TEST(DiskModel, CancelTailRefundsUnrenderedServiceTime) {
    DiskModel disk(spec(), kCapacity);
    const util::SimTime cost = disk.read(0, 4 << 20);
    const util::SimTime tail = util::SimTime::from_micros(cost.raw_micros() / 2);
    disk.cancel_tail(tail);
    const DiskStats& s = disk.stats();
    EXPECT_EQ(s.aborted_requests, 1u);
    EXPECT_EQ(s.requests, 1u);  // the request still happened
    EXPECT_EQ(s.service_time.raw_micros(), (cost - tail).raw_micros());
}

TEST(DiskModel, CancelTailClampsOverCancelToZero) {
    // A tail larger than the service time charged so far (e.g. a refund of
    // injected delay mistakenly routed here) must clamp at zero, never drive
    // the aggregate negative.
    DiskModel disk(spec(), kCapacity);
    const util::SimTime cost = disk.read(0, 1 << 20);
    disk.cancel_tail(cost + util::SimTime::from_millis(999.0));
    EXPECT_EQ(disk.stats().service_time.raw_micros(), 0);
    EXPECT_EQ(disk.stats().aborted_requests, 1u);
}

TEST(DiskModel, CancelTailWithZeroServiceIsANoOpOnTheLedger) {
    DiskModel disk(spec(), kCapacity);
    disk.cancel_tail(util::SimTime::zero());
    EXPECT_EQ(disk.stats().service_time.raw_micros(), 0);
    EXPECT_EQ(disk.stats().aborted_requests, 1u);  // the abort itself counts
}

TEST(DiskModel, MixedCancelsKeepServiceAndFaultLedgersDisjoint) {
    // A read carrying injected delay is cancelled mid-stall: the fault part
    // goes back through refund_delay, the service tail through cancel_tail,
    // and neither ledger bleeds into the other.
    DiskModel disk(spec(), kCapacity);
    const util::SimTime service = disk.read(0, 1 << 20);
    const auto injected = util::SimTime::from_millis(500.0);
    disk.charge_delay(injected);
    ASSERT_EQ(disk.stats().service_time.raw_micros(), service.raw_micros());
    ASSERT_EQ(disk.stats().fault_delay.raw_micros(), injected.raw_micros());
    // Cancel with 400 ms of the stall plus half the service unrendered.
    const util::SimTime fault_part = util::SimTime::from_millis(400.0);
    const util::SimTime service_part = util::SimTime::from_micros(service.raw_micros() / 2);
    disk.refund_delay(fault_part);
    disk.cancel_tail(service_part);
    EXPECT_EQ(disk.stats().fault_delay.raw_micros(), (injected - fault_part).raw_micros());
    EXPECT_EQ(disk.stats().service_time.raw_micros(), (service - service_part).raw_micros());
    // Over-refunding the remaining delay clamps at zero as well.
    disk.refund_delay(util::SimTime::from_millis(1e6));
    EXPECT_EQ(disk.stats().fault_delay.raw_micros(), 0);
    EXPECT_EQ(disk.stats().service_time.raw_micros(), (service - service_part).raw_micros());
}

// --------------------------------------------------------------------------
// Heavy-tailed service draws (DiskSpec::heavy_tail)
// --------------------------------------------------------------------------

TEST(DiskModel, HeavyTailOffIsIndistinguishableFromBaseline) {
    DiskModel plain(spec(), kCapacity);
    DiskSpec with_field = spec();
    with_field.heavy_tail = HeavyTailSpec{};  // rate 0 = disabled
    DiskModel gated(with_field, kCapacity);
    for (int i = 0; i < 32; ++i) {
        const auto off = static_cast<std::uint64_t>(i) * (1 << 20);
        EXPECT_EQ(plain.read(off, 1 << 20).raw_micros(), gated.read(off, 1 << 20).raw_micros());
    }
    EXPECT_EQ(gated.stats().slow_draws, 0u);
    EXPECT_EQ(gated.stats().slow_service_extra.raw_micros(), 0);
}

TEST(DiskModel, HeavyTailDrawsInflateSomeReadsDeterministically) {
    DiskSpec s = spec();
    s.heavy_tail.rate = 0.3;
    s.heavy_tail.lognormal_mu = 2.0;
    s.heavy_tail.seed = 42;
    const auto run = [&s] {
        DiskModel disk(s, kCapacity);
        std::vector<std::int64_t> costs;
        for (int i = 0; i < 64; ++i)
            costs.push_back(disk.read(static_cast<std::uint64_t>(i) * (1 << 20),
                                      1 << 20).raw_micros());
        return std::make_pair(costs, disk.stats().slow_draws);
    };
    const auto [a, drew_a] = run();
    const auto [b, drew_b] = run();
    EXPECT_EQ(a, b);  // same seed, same request sequence -> identical costs
    EXPECT_EQ(drew_a, drew_b);
    EXPECT_GT(drew_a, 0u);
    EXPECT_LT(drew_a, 64u);  // rate 0.3 straggles some, not all
}

TEST(DiskModel, HeavyTailSlowReadsExceedPeekCost) {
    DiskSpec s = spec();
    s.heavy_tail.rate = 1.0;  // every read straggles
    s.heavy_tail.lognormal_mu = 3.0;
    s.heavy_tail.lognormal_sigma = 0.25;
    DiskModel disk(s, kCapacity);
    const util::SimTime peek = disk.peek_cost(0, 1 << 20);
    const util::SimTime paid = disk.read(0, 1 << 20);
    // Box-Muller over 53-bit uniforms keeps |z| <= sqrt(2 * 53 * ln 2) ~ 8.58,
    // so every multiplier is at least exp(3 - 0.25 * 8.58) ~ 2.35: the
    // straggler at least doubles the straggler-free price peek_cost() quotes.
    EXPECT_GE(paid.raw_micros(), 2 * peek.raw_micros());
    EXPECT_EQ(disk.stats().slow_draws, 1u);
    EXPECT_EQ(disk.stats().slow_service_extra.raw_micros(), (paid - peek).raw_micros());
}

TEST(DiskModel, ResetStatsKeepsHead) {
    DiskModel disk(spec(), kCapacity);
    disk.read(0, 1 << 20);
    disk.reset_stats();
    EXPECT_EQ(disk.stats().requests, 0u);
    // Head survives the reset: continuing at 1 MiB is sequential.
    EXPECT_NEAR(disk.read(1 << 20, 1 << 20).millis(), transfer_ms(1 << 20), 2e-3);
}

// --------------------------------------------------------------------------
// Fuzz-pinned ledger regressions (fuzz/fuzz_disk_model.cpp). The byte-level
// triggering inputs live in fuzz/corpus/fuzz_disk_model/ and replay as the
// FuzzReplay.fuzz_disk_model ctest in every build.
// --------------------------------------------------------------------------

TEST(DiskModel, NegativeCancelTailCannotInflateServiceTime) {
    DiskModel disk(spec(), kCapacity);
    const std::int64_t charged = disk.read(0, 1 << 20).raw_micros();
    disk.cancel_tail(util::SimTime::from_micros(-100'000));
    EXPECT_EQ(disk.stats().service_time.raw_micros(), charged);
}

TEST(DiskModel, OverRefundAfterNegativeCancelClampsAtZero) {
    // The regression-negative-refund corpus input: a negative cancel must
    // not bank credit that a later over-sized cancel could turn into a
    // negative ledger.
    DiskModel disk(spec(), kCapacity);
    disk.cancel_tail(util::SimTime::from_micros(-100'000));  // ignored
    disk.refund_delay(util::SimTime::zero());                // no-op
    disk.cancel_tail(util::SimTime::from_micros(200'000));   // > ever charged
    EXPECT_EQ(disk.stats().service_time.raw_micros(), 0);
}

TEST(DiskModel, NegativeAndOverSizedDelayRefundsClampOnTheFaultLedger) {
    DiskModel disk(spec(), kCapacity);
    disk.charge_delay(util::SimTime::from_micros(-50));  // ignored
    EXPECT_EQ(disk.stats().fault_delay.raw_micros(), 0);
    disk.charge_delay(util::SimTime::from_micros(70));
    disk.refund_delay(util::SimTime::from_micros(-30));  // ignored
    EXPECT_EQ(disk.stats().fault_delay.raw_micros(), 70);
    disk.refund_delay(util::SimTime::from_micros(200));  // clamps to zero
    EXPECT_EQ(disk.stats().fault_delay.raw_micros(), 0);
}

TEST(DiskModel, ExtremeParetoTailSaturatesInsteadOfOverflowing) {
    // A legal but extreme lognormal (mu = 1000, so exp() overflows to
    // infinity for every z) draws unbounded multipliers; the model caps the
    // straggler factor at 1e6 so every read cost stays a finite,
    // non-negative count of microseconds and the service ledger cannot
    // overflow within a run. (The name predates the lognormal-only tail.)
    DiskSpec s = spec();
    s.heavy_tail.rate = 1.0;
    s.heavy_tail.lognormal_mu = 1000.0;
    s.heavy_tail.lognormal_sigma = 3.0;
    DiskModel disk(s, kCapacity);
    for (int i = 0; i < 256; ++i) {
        // peek_cost tracks the head, so the bound is per-read.
        const std::int64_t base = disk.peek_cost(0, 1 << 20).raw_micros();
        const std::int64_t cost = disk.read(0, 1 << 20).raw_micros();
        EXPECT_GE(cost, 0);
        EXPECT_LE(cost, base * 1'000'000 + 1);  // the 1e6 multiplier cap
        EXPECT_GE(cost, base * 999'999);        // ... and every draw reaches it
    }
    EXPECT_EQ(disk.stats().slow_draws, 256u);
    EXPECT_GE(disk.stats().service_time.raw_micros(), 0);
}

}  // namespace
}  // namespace jaws::storage
