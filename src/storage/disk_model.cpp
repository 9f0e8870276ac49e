#include "storage/disk_model.h"

#include <cmath>
#include <cstdlib>
#include <numbers>
#include <stdexcept>

#include "util/rng.h"

namespace jaws::storage {

namespace {
/// Uniform [0, 1) from hash(seed, draw index, stream) — stateless, so equal
/// request sequences straggle identically regardless of what else happened.
double hash_uniform(std::uint64_t seed, std::uint64_t n,
                    std::uint64_t stream) noexcept {
    std::uint64_t state = seed;
    state ^= util::splitmix64(state) ^ n;
    state ^= util::splitmix64(state) ^ stream;
    return static_cast<double>(util::splitmix64(state) >> 11) * 0x1.0p-53;
}
}  // namespace

double DiskModel::slow_multiplier(std::uint64_t n) const noexcept {
    const HeavyTailSpec& ht = spec_.heavy_tail;
    if (hash_uniform(ht.seed, n, 1) >= ht.rate) return 1.0;
    // Lognormal via Box-Muller on two further hash streams.
    const double u = hash_uniform(ht.seed, n, 2);
    const double v = hash_uniform(ht.seed, n, 3);
    const double z =
        std::sqrt(-2.0 * std::log1p(-u)) * std::cos(2.0 * std::numbers::pi * v);
    const double mult = std::exp(ht.lognormal_mu + ht.lognormal_sigma * z);
    // Cap the slowdown: a legal spec (a large mu or sigma) can otherwise draw
    // an unbounded — even infinite — multiplier whose priced service time
    // overflows the integer virtual clock when accumulated (found by
    // fuzz/fuzz_disk_model.cpp). A million-fold straggler is already far past
    // anything hedging or cancellation must distinguish.
    constexpr double kMaxSlowMultiplier = 1e6;
    return std::clamp(mult, 1.0, kMaxSlowMultiplier);
}

util::SimTime DiskModel::peek_cost(std::uint64_t offset, std::uint64_t bytes,
                                   util::ChannelIndex channel) const {
    if (channel.value() >= heads_.size())
        throw std::out_of_range("DiskModel::peek_cost: no such channel");
    const std::uint64_t head = heads_[channel.value()];
    double ms = 0.0;
    if (offset != head) {
        const double distance =
            static_cast<double>(offset > head ? offset - head : head - offset);
        const double stroke_frac =
            std::min(1.0, distance / static_cast<double>(capacity_bytes_));
        // Seek time grows sub-linearly with distance (classic sqrt model).
        ms += spec_.settle_ms + spec_.seek_full_stroke_ms * std::sqrt(stroke_frac);
    }
    ms += static_cast<double>(bytes) / (spec_.transfer_mb_per_s * 1e6) * 1e3;
    return util::SimTime::from_millis(ms);
}

util::SimTime DiskModel::read(std::uint64_t offset, std::uint64_t bytes,
                              util::ChannelIndex channel) {
    util::SimTime cost = peek_cost(offset, bytes, channel);
    ++stats_.requests;
    if (offset == heads_[channel.value()]) ++stats_.sequential_requests;
    stats_.bytes_read += bytes;
    if (spec_.heavy_tail.enabled()) {
        const double mult = slow_multiplier(draws_++);
        if (mult > 1.0) {
            const util::SimTime slowed =
                util::SimTime::from_millis(cost.millis() * mult);
            ++stats_.slow_draws;
            stats_.slow_service_extra += slowed - cost;
            cost = slowed;
        }
    }
    stats_.service_time += cost;
    heads_[channel.value()] = offset + bytes;
    return cost;
}

}  // namespace jaws::storage
