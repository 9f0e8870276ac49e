// Fuzz harness for storage::DiskModel.
//
// Decodes the input into a DiskSpec (including adversarial heavy-tail
// parameters) and a capacity, plus a program of read / charge_delay /
// cancel_tail / refund_delay / out-of-range operations, and mirrors the
// documented ledger in the harness:
//
//   * service_time and fault_delay never go negative and always equal the
//     mirrored ledger exactly (charges minus clamped refunds) — the "no
//     negative or double refunds" contract hedged-read cancellation relies
//     on;
//   * a read never costs less than its peek_cost (heavy-tail multipliers
//     are >= 1), and costs exactly peek_cost when the tail is disabled;
//   * request counters (requests, sequential, aborted, bytes, slow draws)
//     match the mirror, and reads on a nonexistent channel throw
//     std::out_of_range instead of corrupting head state.
#include <cstdint>
#include <stdexcept>

#include "fuzz_input.h"
#include "storage/disk_model.h"
#include "util/sim_time.h"

namespace {

using jaws::fuzz::FuzzInput;
using jaws::storage::DiskModel;
using jaws::storage::DiskSpec;
using jaws::util::ChannelIndex;
using jaws::util::SimTime;

constexpr int kMaxOps = 256;

DiskSpec decode_spec(FuzzInput& in, std::uint64_t& capacity_bytes) {
    DiskSpec spec;
    spec.settle_ms = in.unit_range(0.0, 10.0);
    spec.seek_full_stroke_ms = in.unit_range(0.0, 50.0);
    spec.transfer_mb_per_s = in.unit_range(0.1, 1000.0);
    capacity_bytes = 1ULL << (20 + in.below(21));  // 1 MB .. 1 TB
    spec.heavy_tail.rate = in.boolean() ? in.unit_range(0.0, 1.0) : 0.0;
    spec.heavy_tail.lognormal_mu = in.unit_range(-2.0, 4.0);
    spec.heavy_tail.lognormal_sigma = in.unit_range(0.0, 3.0);
    spec.heavy_tail.seed = in.u64();
    return spec;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
    FuzzInput in(data, size);
    std::uint64_t capacity_bytes = 0;
    const DiskSpec spec = decode_spec(in, capacity_bytes);
    const std::size_t channels = in.below(8) + 1;
    DiskModel disk(spec, capacity_bytes, channels);
    JAWS_FUZZ_REQUIRE(disk.channels() == channels, "channel count mismatch");

    // Mirrored ledger (the documented clamp semantics, applied externally).
    std::int64_t service_us = 0, fault_us = 0;
    std::uint64_t requests = 0, aborted = 0, bytes_total = 0;
    SimTime last_cost = SimTime::zero();

    for (int op = 0; op < kMaxOps && !in.exhausted(); ++op) {
        switch (in.below(6)) {
            case 0:
            case 1: {  // read, priced against peek_cost
                const std::uint64_t offset = in.u64() % (1ULL << 50);
                const std::uint64_t bytes = in.u64() % (1ULL << 30);
                const ChannelIndex channel{in.below(channels)};
                const SimTime peek = disk.peek_cost(offset, bytes, channel);
                const SimTime cost = disk.read(offset, bytes, channel);
                JAWS_FUZZ_REQUIRE(cost.raw_micros() >= 0, "negative read cost");
                JAWS_FUZZ_REQUIRE(cost >= peek,
                                  "read cost below the straggler-free peek");
                if (!spec.heavy_tail.enabled())
                    JAWS_FUZZ_REQUIRE(cost == peek,
                                      "read and peek disagree without a heavy tail");
                service_us += cost.raw_micros();
                ++requests;
                bytes_total += bytes;
                last_cost = cost;
                break;
            }
            case 2: {  // charge_delay, including negative spans (must be ignored)
                const SimTime extra = SimTime::from_micros(in.range(-100000, 1000000));
                disk.charge_delay(extra);
                if (extra.raw_micros() > 0) fault_us += extra.raw_micros();
                break;
            }
            case 3: {  // cancel_tail, including over- and negative refunds
                const std::int64_t tail =
                    in.boolean() ? in.range(-100000, 100000)
                                 : last_cost.raw_micros() + in.range(0, 1000);
                disk.cancel_tail(SimTime::from_micros(tail));
                service_us -= tail > 0 ? tail : 0;
                if (service_us < 0) service_us = 0;
                ++aborted;
                break;
            }
            case 4: {  // refund_delay, same clamp contract on the fault side
                const std::int64_t tail = in.range(-100000, 2000000);
                disk.refund_delay(SimTime::from_micros(tail));
                fault_us -= tail > 0 ? tail : 0;
                if (fault_us < 0) fault_us = 0;
                break;
            }
            case 5: {  // out-of-range channel must throw, not corrupt
                bool threw = false;
                try {
                    disk.read(in.u64(), 1024, ChannelIndex{channels + in.below(4)});
                } catch (const std::out_of_range&) {
                    threw = true;
                }
                JAWS_FUZZ_REQUIRE(threw, "out-of-range channel did not throw");
                break;
            }
        }
        const jaws::storage::DiskStats& s = disk.stats();
        JAWS_FUZZ_REQUIRE(s.service_time.raw_micros() == service_us,
                          "service_time diverged from the mirrored ledger");
        JAWS_FUZZ_REQUIRE(s.fault_delay.raw_micros() == fault_us,
                          "fault_delay diverged from the mirrored ledger");
        JAWS_FUZZ_REQUIRE(s.service_time.raw_micros() >= 0, "negative service_time");
        JAWS_FUZZ_REQUIRE(s.fault_delay.raw_micros() >= 0, "negative fault_delay");
        JAWS_FUZZ_REQUIRE(s.requests == requests, "request count mismatch");
        JAWS_FUZZ_REQUIRE(s.aborted_requests == aborted, "aborted count mismatch");
        JAWS_FUZZ_REQUIRE(s.bytes_read == bytes_total, "bytes_read mismatch");
        JAWS_FUZZ_REQUIRE(s.sequential_requests <= s.requests,
                          "more sequential requests than requests");
        JAWS_FUZZ_REQUIRE(s.slow_draws <= s.requests,
                          "more slow draws than requests");
        JAWS_FUZZ_REQUIRE(s.total_busy() == s.service_time + s.fault_delay,
                          "total_busy is not the sum of its parts");
    }

    disk.reset_stats();
    JAWS_FUZZ_REQUIRE(disk.stats().requests == 0 &&
                          disk.stats().service_time == SimTime::zero(),
                      "reset_stats left residue");
    return 0;
}
