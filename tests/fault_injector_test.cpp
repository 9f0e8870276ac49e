// Fault injector unit tests: determinism, zero-cost-when-disabled, and each
// fault class in isolation.
#include <gtest/gtest.h>

#include <vector>

#include "storage/atom_store.h"
#include "storage/fault_injector.h"

namespace jaws::storage {
namespace {

TEST(FaultInjector, DefaultSpecIsDisabled) {
    FaultInjector injector{FaultSpec{}};
    EXPECT_FALSE(injector.enabled());
    EXPECT_FALSE(FaultSpec{}.storage_faults_enabled());
}

TEST(FaultInjector, NodeDownAloneDoesNotEnableStorageFaults) {
    FaultSpec spec;
    spec.node_down.push_back(NodeDownEvent{util::NodeIndex{0}, util::SimTime::from_seconds(1)});
    EXPECT_FALSE(spec.storage_faults_enabled());
}

TEST(FaultInjector, ZeroRatesNeverFail) {
    FaultSpec spec;
    spec.latency_spike_mean_ms = 100.0;  // mean without a rate: never fires
    FaultInjector injector{spec};
    for (std::uint32_t m = 0; m < 64; ++m) {
        const FaultOutcome out = injector.on_read(AtomId{0, m});
        EXPECT_FALSE(out.failed);
        EXPECT_EQ(out.extra_latency.raw_micros(), 0);
    }
    EXPECT_EQ(injector.stats().transient_faults, 0u);
    EXPECT_EQ(injector.stats().latency_spikes, 0u);
}

TEST(FaultInjector, CertainErrorRateAlwaysFails) {
    FaultSpec spec;
    spec.transient_error_rate = 1.0;
    FaultInjector injector{spec};
    for (std::uint32_t m = 0; m < 32; ++m) {
        const FaultOutcome out = injector.on_read(AtomId{1, m});
        EXPECT_TRUE(out.failed);
        EXPECT_FALSE(out.permanent);
    }
    EXPECT_EQ(injector.stats().transient_faults, 32u);
}

TEST(FaultInjector, TransientRateIsRoughlyCalibrated) {
    FaultSpec spec;
    spec.transient_error_rate = 0.25;
    FaultInjector injector{spec};
    std::uint64_t failures = 0;
    const std::uint64_t trials = 4000;
    for (std::uint64_t i = 0; i < trials; ++i)
        failures += injector.on_read(AtomId{0, i % 500}).failed ? 1 : 0;
    const double rate = static_cast<double>(failures) / static_cast<double>(trials);
    EXPECT_NEAR(rate, 0.25, 0.05);
}

TEST(FaultInjector, BadRangeIsPermanentAcrossTimesteps) {
    FaultSpec spec;
    spec.bad_ranges.push_back(BadRange{10, 20});
    FaultInjector injector{spec};
    for (std::uint32_t t = 0; t < 3; ++t) {
        const FaultOutcome out = injector.on_read(AtomId{t, 15});
        EXPECT_TRUE(out.failed);
        EXPECT_TRUE(out.permanent);
    }
    EXPECT_FALSE(injector.on_read(AtomId{0, 9}).permanent);
    EXPECT_FALSE(injector.on_read(AtomId{0, 21}).permanent);
    EXPECT_TRUE(injector.permanently_bad(AtomId{7, 10}));
    EXPECT_TRUE(injector.permanently_bad(AtomId{7, 20}));
    EXPECT_FALSE(injector.permanently_bad(AtomId{7, 21}));
    EXPECT_EQ(injector.stats().permanent_faults, 3u);
}

TEST(FaultInjector, SpikesCarryExponentialLatency) {
    FaultSpec spec;
    spec.latency_spike_rate = 1.0;
    spec.latency_spike_mean_ms = 40.0;
    FaultInjector injector{spec};
    util::SimTime total;
    const int n = 500;
    for (int i = 0; i < n; ++i) {
        const FaultOutcome out = injector.on_read(AtomId{0, static_cast<std::uint64_t>(i)});
        EXPECT_FALSE(out.failed);
        EXPECT_GE(out.extra_latency.raw_micros(), 0);
        total += out.extra_latency;
    }
    EXPECT_EQ(injector.stats().latency_spikes, static_cast<std::uint64_t>(n));
    EXPECT_EQ(injector.stats().spike_delay.raw_micros(), total.raw_micros());
    // Mean of n exponential draws should land near the configured mean.
    EXPECT_NEAR(total.millis() / n, 40.0, 12.0);
}

TEST(FaultInjector, SameSeedSameSchedule) {
    FaultSpec spec;
    spec.seed = 99;
    spec.transient_error_rate = 0.3;
    spec.latency_spike_rate = 0.2;
    FaultInjector a{spec}, b{spec};
    for (std::uint32_t t = 0; t < 2; ++t)
        for (std::uint64_t m = 0; m < 200; ++m) {
            const FaultOutcome oa = a.on_read(AtomId{t, m});
            const FaultOutcome ob = b.on_read(AtomId{t, m});
            EXPECT_EQ(oa.failed, ob.failed);
            EXPECT_EQ(oa.extra_latency.raw_micros(), ob.extra_latency.raw_micros());
        }
}

TEST(FaultInjector, ScheduleIsIndependentOfInterleaving) {
    FaultSpec spec;
    spec.transient_error_rate = 0.5;
    FaultInjector forward{spec}, backward{spec};
    std::vector<bool> fwd, bwd(100);
    for (std::uint64_t m = 0; m < 100; ++m)
        fwd.push_back(forward.on_read(AtomId{0, m}).failed);
    for (std::uint64_t m = 100; m-- > 0;)
        bwd[m] = backward.on_read(AtomId{0, m}).failed;
    for (std::uint64_t m = 0; m < 100; ++m) EXPECT_EQ(fwd[m], bwd[m]);
}

TEST(FaultInjector, DifferentSeedsDiffer) {
    FaultSpec a_spec, b_spec;
    a_spec.transient_error_rate = b_spec.transient_error_rate = 0.5;
    a_spec.seed = 1;
    b_spec.seed = 2;
    FaultInjector a{a_spec}, b{b_spec};
    int differing = 0;
    for (std::uint64_t m = 0; m < 200; ++m)
        if (a.on_read(AtomId{0, m}).failed != b.on_read(AtomId{0, m}).failed) ++differing;
    EXPECT_GT(differing, 0);
}

TEST(FaultInjector, RetriesRedrawPerAttempt) {
    FaultSpec spec;
    spec.transient_error_rate = 0.5;
    FaultInjector injector{spec};
    // Repeated attempts against one atom must not all share one fate.
    bool saw_fail = false, saw_ok = false;
    for (int attempt = 0; attempt < 64; ++attempt) {
        if (injector.on_read(AtomId{0, 7}).failed)
            saw_fail = true;
        else
            saw_ok = true;
    }
    EXPECT_TRUE(saw_fail);
    EXPECT_TRUE(saw_ok);
}

TEST(AtomStoreFaults, FailedReadChargesDiskButReturnsNoData) {
    AtomStoreSpec spec;
    spec.grid.voxels_per_side = 64;
    spec.grid.atom_side = 32;
    spec.grid.timesteps = 1;
    spec.materialize_data = true;
    spec.faults.transient_error_rate = 1.0;
    AtomStore store(spec);
    const ReadResult rr = store.read(AtomId{0, 0});
    EXPECT_TRUE(rr.failed);
    EXPECT_FALSE(rr.permanent);
    EXPECT_EQ(rr.data, nullptr);
    EXPECT_GT(rr.io_cost.raw_micros(), 0);  // the head still moved
    EXPECT_EQ(store.disk_stats().requests, 1u);
    EXPECT_EQ(store.fault_stats().transient_faults, 1u);
}

TEST(AtomStoreFaults, SpikeInflatesIoCostAndDiskBusyTime) {
    AtomStoreSpec spec;
    spec.grid.voxels_per_side = 64;
    spec.grid.atom_side = 32;
    spec.grid.timesteps = 1;
    spec.faults.latency_spike_rate = 1.0;
    spec.faults.latency_spike_mean_ms = 200.0;

    AtomStoreSpec clean = spec;
    clean.faults = FaultSpec{};

    AtomStore faulty(spec), baseline(clean);
    const ReadResult slow = faulty.read(AtomId{0, 3});
    const ReadResult fast = baseline.read(AtomId{0, 3});
    EXPECT_FALSE(slow.failed);
    EXPECT_GE(slow.io_cost.raw_micros(), fast.io_cost.raw_micros());
    EXPECT_EQ(faulty.disk_stats().fault_delay.raw_micros(),
              slow.io_cost.raw_micros() - fast.io_cost.raw_micros());
    EXPECT_EQ(baseline.disk_stats().fault_delay.raw_micros(), 0);
}

}  // namespace
}  // namespace jaws::storage
