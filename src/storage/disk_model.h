// Simulated disk.
//
// The paper's cost model (Eq. 1) charges a constant T_b for reading an atom
// from disk because atoms are equal-sized; underneath, the production system
// is a RAID-5 stripe set whose effective cost has a seek component that grows
// with head movement and a transfer component proportional to bytes. This
// model reproduces both: callers get a virtual-time cost per request, and the
// scheduler's Morton-ordered batching visibly reduces the seek component —
// the mechanism the paper's layout choice exists to exploit.
//
// The model exposes `channels` independent service channels (the RAID array's
// command parallelism): each channel keeps its own head position, so
// concurrent requests dispatched by the event kernel's SimResource do not
// interfere with each other's seek state. Request *queuing* lives in the
// SimResource that fronts this model; the DiskModel itself only prices and
// accounts individual requests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/sim_time.h"
#include "util/typed_id.h"

namespace jaws::storage {

/// Heavy-tailed service-time mode: with probability `rate` a read draws a
/// lognormal slowdown multiplier, clamped to [1, 1e6], and its service cost
/// is scaled by it. This models the stragglers of a real RAID array —
/// degraded parity reads, firmware GC stalls, vibrating spindles — whose
/// *tail*, not mean, decides interactive latency. Draws are pure hashes of (seed, per-model request
/// index): the same request sequence always straggles identically, so runs
/// stay bit-reproducible. `rate == 0` (the default) is indistinguishable
/// from a model without the feature.
struct HeavyTailSpec {
    double rate = 0.0;              ///< Probability a read draws a slow multiplier.
    double lognormal_mu = 1.0;      ///< Mean of log(multiplier).
    double lognormal_sigma = 0.75;  ///< Stddev of log(multiplier).
    std::uint64_t seed = 0x7E11;    ///< Draw stream seed.

    bool enabled() const noexcept { return rate > 0.0; }
};

/// Tunable parameters of the simulated disk. The seek cost is
/// settle + full_stroke * sqrt(distance / capacity), where the capacity is
/// the size of the layout the disk holds (DiskModel's constructor argument;
/// AtomStore passes its dataset size): reads that are close on disk
/// (Morton-adjacent atoms of one time step) pay almost nothing beyond
/// settle, while jumps across time steps (tens of GB apart under the
/// clustered layout) pay several milliseconds — the physical reason the
/// Morton space-filling layout and Morton-ordered batches matter (paper
/// Sec. III-A).
struct DiskSpec {
    double settle_ms = 1.0;            ///< Fixed head-settle cost of any seek.
    double seek_full_stroke_ms = 14.0; ///< Additional cost of a full-stroke seek.
    double transfer_mb_per_s = 250.0;  ///< Sustained (RAID-aggregate) transfer rate.
    HeavyTailSpec heavy_tail;          ///< Straggler service draws (default: off).
};

/// Aggregate request accounting. `service_time` (positioning + transfer
/// actually rendered) and `fault_delay` (injected straggler time) are
/// *disjoint*: total time the disk spent on requests is their sum.
struct DiskStats {
    std::uint64_t requests = 0;
    std::uint64_t sequential_requests = 0;  ///< Requests starting where a head was.
    std::uint64_t aborted_requests = 0;     ///< Requests cancelled mid-service
                                            ///< (preempted speculative reads).
    std::uint64_t bytes_read = 0;
    std::uint64_t slow_draws = 0;  ///< Reads that drew a heavy-tail multiplier.
    util::SimTime service_time;  ///< Positioning + transfer time rendered.
    util::SimTime fault_delay;   ///< Injected straggler time (disjoint).
    util::SimTime slow_service_extra;  ///< Extra service time heavy-tail draws
                                       ///< added (a subset of service_time).

    /// Total virtual time the disk spent on requests.
    util::SimTime total_busy() const noexcept { return service_time + fault_delay; }
};

/// Multi-channel disk with per-channel positional state. Not thread-safe;
/// each database node owns its own disk (matching the one-JAWS-instance-
/// per-node layout).
class DiskModel {
  public:
    /// A disk of `capacity_bytes` (the addressable range a full-stroke seek
    /// crosses) with `channels` service channels.
    DiskModel(const DiskSpec& spec, std::uint64_t capacity_bytes, std::size_t channels = 1)
        : spec_(spec), capacity_bytes_(capacity_bytes), heads_(channels ? channels : 1, 0) {}

    /// Cost of reading `bytes` at `offset` on `channel`, advancing that
    /// channel's head. Sequential reads (offset == channel head) pay no seek.
    /// Under DiskSpec::heavy_tail the cost may additionally carry a seeded
    /// straggler multiplier (so read() can exceed peek_cost(), which always
    /// prices the straggler-free case the scheduler's estimates assume).
    util::SimTime read(std::uint64_t offset, std::uint64_t bytes,
                       util::ChannelIndex channel = util::ChannelIndex{0});

    /// Cost the same read would incur, without performing it.
    util::SimTime peek_cost(std::uint64_t offset, std::uint64_t bytes,
                            util::ChannelIndex channel = util::ChannelIndex{0}) const;

    /// Account injected extra service time (fault-injector latency spikes).
    /// Kept disjoint from service_time — see DiskStats. A non-positive span
    /// is ignored: a negative "extra" would silently *refund* fault delay
    /// through the charging entry point (found by fuzz/fuzz_disk_model.cpp).
    void charge_delay(util::SimTime extra) noexcept {
        if (extra > util::SimTime::zero()) stats_.fault_delay += extra;
    }

    /// A request already counted by read() was cancelled mid-service
    /// (preempted speculative read, hedged-out straggler): return the
    /// unrendered tail of its service time so busy accounting reflects what
    /// the disk actually did. Clamped in both directions: a tail larger than
    /// the service time charged so far (double cancel of the same request)
    /// can never drive the aggregate negative, and a *negative* tail —
    /// which would silently inflate service_time through the refund entry
    /// point (found by fuzz/fuzz_disk_model.cpp) — is treated as zero.
    void cancel_tail(util::SimTime unrendered) noexcept {
        ++stats_.aborted_requests;
        stats_.service_time = stats_.service_time.minus_clamped(unrendered);
    }

    /// Give back injected delay (charge_delay) that a cancelled request never
    /// actually waited out. The counterpart of cancel_tail for the
    /// fault_delay side of the ledger, keeping the two disjoint after mixed
    /// cancels; clamped the same way (never negative, negative tails ignored).
    void refund_delay(util::SimTime unrendered) noexcept {
        stats_.fault_delay = stats_.fault_delay.minus_clamped(unrendered);
    }

    /// Number of independent service channels.
    std::size_t channels() const noexcept { return heads_.size(); }

    /// Lifetime request statistics.
    const DiskStats& stats() const noexcept { return stats_; }

    /// Reset statistics (head positions are kept).
    void reset_stats() noexcept { stats_ = DiskStats{}; }

    /// The spec the model was built with.
    const DiskSpec& spec() const noexcept { return spec_; }

  private:
    /// Straggler multiplier (>= 1) for draw index `n`; 1.0 when the draw
    /// does not straggle.
    double slow_multiplier(std::uint64_t n) const noexcept;

    DiskSpec spec_;
    std::uint64_t capacity_bytes_;
    DiskStats stats_;
    std::vector<std::uint64_t> heads_;
    std::uint64_t draws_ = 0;  ///< Heavy-tail draw index (one per read).
};

}  // namespace jaws::storage
