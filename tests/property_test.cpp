// Property-based conservation laws of the simulation kernel (tests/proptest.h).
//
// Each property generates a random-but-seeded program against one component
// and checks an invariant that must hold for *every* program, not just the
// fixtures the unit tests pin:
//
//   * EventQueue — no event fires before its post tick or scheduled time,
//     and same-key events fire in insertion order;
//   * SimResource — channel-time conservation: the busy integral never
//     exceeds channels * elapsed, and started + discarded == submitted;
//   * DiskModel — ledger conservation: charged service equals rendered
//     service minus clamped refunds, and the ledger never goes negative;
//   * util::percentile — monotone in p and bounded by the sample extremes;
//   * field::lagrange_weights — partition of unity, polynomial reproduction
//     up to degree order-1, symmetry at frac = 0.5 and finiteness over
//     [0, 1), with the batched plane writer bitwise equal to the scalar one.
//
// The harness is deterministic (fixed seeds, no wall clock); a failure
// prints a shrunk choice stream that reproduces forever.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <cstdint>
#include <string>
#include <vector>

#include "field/interpolation.h"
#include "proptest.h"
#include "storage/disk_model.h"
#include "util/event_queue.h"
#include "util/sim_time.h"
#include "util/stats.h"

namespace jaws {
namespace {

using proptest::Config;
using proptest::Gen;
using proptest::Outcome;
using util::EventQueue;
using util::SimResource;
using util::SimTime;

// --- EventQueue: causality and FIFO ties -----------------------------------

std::string event_queue_causality(Gen& g) {
    EventQueue q;
    std::string failure;
    struct Posted {
        SimTime post_tick, due;
    };

    const int ops = static_cast<int>(g.below(64)) + 1;
    for (int i = 0; i < ops; ++i) {
        if (g.below(4) == 0) {
            q.run_one();
            continue;
        }
        const SimTime at = q.now() + SimTime::from_micros(g.in_range(-50, 200));
        const Posted p{q.now(), std::max(at, q.now())};
        q.schedule(at, static_cast<int>(g.below(3)), [&failure, &q, p] {
            if (q.now() < p.post_tick)
                failure = "event fired before its post tick";
            if (q.now() != p.due)
                failure = "event fired away from its (clamped) due time";
        });
    }
    while (q.run_one()) {
    }
    if (!q.empty()) return "queue failed to drain";
    return failure;
}

std::string event_queue_fifo_ties(Gen& g) {
    EventQueue q;
    std::vector<std::uint64_t> firing;
    const std::uint64_t n = g.below(16) + 2;
    const SimTime at = SimTime::from_micros(static_cast<std::int64_t>(g.below(100)));
    for (std::uint64_t i = 0; i < n; ++i)
        q.schedule(at, /*priority=*/1, [&firing, i] { firing.push_back(i); });
    while (q.run_one()) {
    }
    if (!std::is_sorted(firing.begin(), firing.end()))
        return "same-key events fired out of insertion order";
    if (firing.size() != n) return "an event was lost or duplicated";
    return "";
}

// --- SimResource: channel-time conservation --------------------------------

std::string resource_conservation(Gen& g) {
    EventQueue q;
    const std::size_t channels = g.below(4) + 1;
    SimResource res(q, channels, /*completion_priority=*/1);
    const SimTime start = q.now();

    std::size_t submitted = 0, started = 0, resolved = 0;
    std::vector<SimResource::JobId> ids;
    const int ops = static_cast<int>(g.below(48)) + 1;
    for (int i = 0; i < ops; ++i) {
        switch (g.below(4)) {
            case 0:
            case 1: {
                SimResource::Job job;
                job.priority = static_cast<int>(g.below(3));
                job.preemptible = g.boolean();
                const SimTime duration = SimTime::from_micros(g.in_range(0, 300));
                job.on_start = [&started, duration](std::size_t) {
                    ++started;
                    return duration;
                };
                job.on_complete = [&resolved](std::size_t) { ++resolved; };
                job.on_abort = [&resolved](std::size_t, SimTime) { ++resolved; };
                ids.push_back(res.submit(std::move(job)));
                ++submitted;
                break;
            }
            case 2:
                if (!ids.empty()) res.cancel(ids[g.below(ids.size())]);
                break;
            case 3: q.run_one(); break;
        }
    }
    // Draining cancel: waiting jobs discard silently, in-service jobs
    // resolve through on_abort (counted in `resolved`).
    for (const SimResource::JobId id : ids) res.cancel(id);
    while (q.run_one()) {
    }
    if (resolved != started)
        return "job conservation: a started job never resolved (or resolved "
               "twice)";
    if (started > submitted) return "more jobs started than submitted";
    if (!res.idle()) return "resource busy after drain";
    const SimTime elapsed = q.now() - start;
    if (res.busy_channel_time().raw_micros() >
        static_cast<std::int64_t>(channels) * elapsed.raw_micros())
        return "busy-channel time exceeds channels * elapsed (the per-channel "
               "busy share would exceed the makespan)";
    if (res.peak_busy_channels() > channels)
        return "peak busy channels exceeds the channel count";
    if (!res.audit()) return "SimResource audit failed after drain";
    return "";
}

// --- DiskModel: ledger conservation ----------------------------------------

std::string disk_ledger_conservation(Gen& g) {
    storage::DiskSpec spec;
    spec.settle_ms = g.in_real(0.0, 5.0);
    spec.seek_full_stroke_ms = g.in_real(0.0, 20.0);
    spec.transfer_mb_per_s = g.in_real(0.5, 500.0);
    spec.heavy_tail.rate = g.boolean() ? g.unit() : 0.0;
    // exp(mu) passes the 1e6 multiplier cap (~e^13.8) well inside this range.
    spec.heavy_tail.lognormal_mu = g.in_real(-2.0, 20.0);
    spec.heavy_tail.lognormal_sigma = g.in_real(0.0, 4.0);
    spec.heavy_tail.seed = g.u64();
    storage::DiskModel disk(spec, 1ULL << 40);

    std::int64_t rendered = 0;   // sum of read() costs
    std::int64_t refunded = 0;   // cancel_tail refunds actually applied
    std::int64_t service = 0;    // mirror of stats_.service_time
    const int ops = static_cast<int>(g.below(64)) + 1;
    for (int i = 0; i < ops; ++i) {
        if (g.below(3) != 0) {
            const SimTime cost =
                disk.read(g.below(1ULL << 40), g.below(1ULL << 24));
            if (cost.raw_micros() < 0) return "negative read cost";
            rendered += cost.raw_micros();
            service += cost.raw_micros();
        } else {
            const std::int64_t tail = g.in_range(-50000, 200000);
            disk.cancel_tail(SimTime::from_micros(tail));
            const std::int64_t applied =
                std::min(std::max<std::int64_t>(0, tail), service);
            refunded += applied;
            service -= applied;
        }
        if (disk.stats().service_time.raw_micros() < 0)
            return "service_time went negative";
        if (disk.stats().service_time.raw_micros() != service)
            return "service_time diverged from the mirrored ledger";
    }
    // Conservation: what the disk rendered splits exactly into what it still
    // charges plus what cancellation refunded.
    if (rendered != service + refunded)
        return "rendered service != charged service + refunds";
    if (disk.stats().total_busy() !=
        disk.stats().service_time + disk.stats().fault_delay)
        return "total_busy is not the sum of its parts";
    return "";
}

// --- percentile: monotone and bounded --------------------------------------

std::string percentile_monotone(Gen& g) {
    const std::size_t n = g.below(64) + 1;
    std::vector<double> sample;
    sample.reserve(n);
    for (std::size_t i = 0; i < n; ++i) sample.push_back(g.in_real(-1e6, 1e6));
    const double p1 = g.unit() * 100.0;
    const double p2 = g.unit() * 100.0;
    const double lo = util::percentile(sample, std::min(p1, p2));
    const double hi = util::percentile(sample, std::max(p1, p2));
    if (!(lo <= hi)) return "percentile not monotone in p";
    const auto [mn, mx] = std::minmax_element(sample.begin(), sample.end());
    if (!(util::percentile(sample, 0.0) >= *mn) ||
        !(util::percentile(sample, 100.0) <= *mx))
        return "percentile escapes the sample range";
    return "";
}

// --- Lagrange weights (field/interpolation.h) ------------------------------

constexpr field::InterpOrder kOrders[] = {field::InterpOrder::kLinear,
                                          field::InterpOrder::kLag4,
                                          field::InterpOrder::kLag6,
                                          field::InterpOrder::kLag8};

// Partition of unity at every order, and the batched plane writer bitwise
// equal to the scalar writer for the same fracs.
std::string weights_partition_of_unity(Gen& g) {
    const field::InterpOrder order = kOrders[g.below(4)];
    const int n = static_cast<int>(order);
    const std::size_t count = g.below(32) + 1;
    std::vector<double> fracs(count);
    for (double& f : fracs) f = g.unit();
    if (count > 1) fracs[0] = 0.0;  // the exact node is a boundary case
    std::vector<double> planes(count * static_cast<std::size_t>(n));
    field::lagrange_weight_planes(fracs.data(), count, order, planes.data());
    for (std::size_t i = 0; i < count; ++i) {
        double scalar[8];
        field::lagrange_weights(fracs[i], order, scalar);
        if (std::memcmp(scalar, &planes[i * static_cast<std::size_t>(n)],
                        static_cast<std::size_t>(n) * sizeof(double)) != 0)
            return "batched weight plane is not bitwise equal to the scalar weights";
        double sum = 0.0;
        for (int k = 0; k < n; ++k) sum += scalar[k];
        if (!(std::fabs(sum - 1.0) <= 1e-9))
            return "weights of order " + std::to_string(n) + " sum to " +
                   std::to_string(sum) + " at frac " + std::to_string(fracs[i]);
    }
    return "";
}

// Exact reproduction of polynomials up to degree order - 1: interpolating
// p(x) at the integer nodes and evaluating at `frac` must reproduce p(frac)
// up to rounding in the basis (scaled tolerance, not bitwise).
std::string weights_reproduce_polynomials(Gen& g) {
    const field::InterpOrder order = kOrders[g.below(4)];
    const int n = static_cast<int>(order);
    const int degree = static_cast<int>(g.below(static_cast<std::uint64_t>(n)));
    double coeff[8];
    for (int d = 0; d <= degree; ++d) coeff[d] = g.in_real(-1.0, 1.0);
    const auto poly = [&](double x) {
        double acc = 0.0;
        for (int d = degree; d >= 0; --d) acc = acc * x + coeff[d];
        return acc;
    };
    const double frac = g.unit();
    double w[8];
    field::lagrange_weights(frac, order, w);
    double acc = 0.0, scale = 1.0;
    for (int i = 0; i < n; ++i) {
        const double node = static_cast<double>(i - (n / 2 - 1));
        acc += w[i] * poly(node);
        scale += std::fabs(w[i] * poly(node));
    }
    if (!(std::fabs(acc - poly(frac)) <= 1e-10 * scale))
        return "order " + std::to_string(n) + " failed to reproduce a degree-" +
               std::to_string(degree) + " polynomial at frac " + std::to_string(frac) +
               " (got " + std::to_string(acc) + ", want " + std::to_string(poly(frac)) +
               ")";
    return "";
}

// The node layout is symmetric about frac = 0.5, so the weights must be too
// (to rounding: the mirrored products associate differently).
std::string weights_symmetric_at_half(Gen& g) {
    const field::InterpOrder order = kOrders[g.below(4)];
    const int n = static_cast<int>(order);
    double w[8];
    field::lagrange_weights(0.5, order, w);
    for (int i = 0; i < n / 2; ++i)
        if (!(std::fabs(w[i] - w[n - 1 - i]) <= 1e-14))
            return "order " + std::to_string(n) + " weights not symmetric at 0.5 (w[" +
                   std::to_string(i) + "]=" + std::to_string(w[i]) + ", mirror " +
                   std::to_string(w[n - 1 - i]) + ")";
    return "";
}

// Finite weights for every frac in [0, 1), including the endpoints' closest
// representable neighbours.
std::string weights_finite(Gen& g) {
    const field::InterpOrder order = kOrders[g.below(4)];
    const int n = static_cast<int>(order);
    double frac;
    switch (g.below(4)) {
        case 0: frac = 0.0; break;
        case 1: frac = std::nextafter(1.0, 0.0); break;
        case 2: frac = std::nextafter(0.0, 1.0); break;
        default: frac = g.unit(); break;
    }
    double w[8];
    field::lagrange_weights(frac, order, w);
    for (int i = 0; i < n; ++i)
        if (!std::isfinite(w[i]))
            return "order " + std::to_string(n) + " weight " + std::to_string(i) +
                   " not finite at frac " + std::to_string(frac);
    return "";
}

TEST(Property, EventQueueCausality) {
    const Outcome o = proptest::check(Config{}, event_queue_causality);
    EXPECT_TRUE(o.ok) << o.message;
}

TEST(Property, EventQueueFifoTies) {
    const Outcome o = proptest::check(Config{}, event_queue_fifo_ties);
    EXPECT_TRUE(o.ok) << o.message;
}

TEST(Property, ResourceChannelTimeConservation) {
    const Outcome o = proptest::check(Config{}, resource_conservation);
    EXPECT_TRUE(o.ok) << o.message;
}

TEST(Property, DiskLedgerConservation) {
    const Outcome o = proptest::check(Config{}, disk_ledger_conservation);
    EXPECT_TRUE(o.ok) << o.message;
}

TEST(Property, PercentileMonotoneAndBounded) {
    const Outcome o = proptest::check(Config{}, percentile_monotone);
    EXPECT_TRUE(o.ok) << o.message;
}

TEST(Property, LagrangeWeightsPartitionOfUnity) {
    const Outcome o = proptest::check(Config{}, weights_partition_of_unity);
    EXPECT_TRUE(o.ok) << o.message;
}

TEST(Property, LagrangeWeightsReproducePolynomials) {
    const Outcome o = proptest::check(Config{}, weights_reproduce_polynomials);
    EXPECT_TRUE(o.ok) << o.message;
}

TEST(Property, LagrangeWeightsSymmetricAtHalf) {
    const Outcome o = proptest::check(Config{}, weights_symmetric_at_half);
    EXPECT_TRUE(o.ok) << o.message;
}

TEST(Property, LagrangeWeightsFinite) {
    const Outcome o = proptest::check(Config{}, weights_finite);
    EXPECT_TRUE(o.ok) << o.message;
}

// --- the harness has teeth --------------------------------------------------

TEST(Property, HarnessFindsAndShrinksCounterexamples) {
    // A property that fails whenever any choice is >= 2^32: the harness must
    // find a failure and shrink it (halving can bring values down to the
    // boundary, truncation strips unrelated tail choices).
    const auto bounded = [](Gen& g) -> std::string {
        const std::size_t n = g.below(16) + 1;
        for (std::size_t i = 0; i < n; ++i)
            if (g.u64() >= (1ULL << 32)) return "choice exceeds 2^32";
        return "";
    };
    const Outcome o = proptest::check(Config{}, bounded);
    ASSERT_FALSE(o.ok) << "the harness missed a property that almost always fails";
    EXPECT_NE(o.message.find("minimal counterexample"), std::string::npos);

    // Determinism: the same config reproduces the identical report.
    const Outcome again = proptest::check(Config{}, bounded);
    EXPECT_EQ(o.message, again.message);
}

TEST(Property, RecheckReplaysACounterexampleExactly) {
    const auto never_large = [](Gen& g) -> std::string {
        return g.u64() > 100 ? "too large" : "";
    };
    const Outcome bad = proptest::recheck(never_large, {101});
    EXPECT_FALSE(bad.ok);
    const Outcome good = proptest::recheck(never_large, {100});
    EXPECT_TRUE(good.ok);
}

}  // namespace
}  // namespace jaws
