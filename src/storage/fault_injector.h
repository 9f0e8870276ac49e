// Deterministic fault injection for the simulated storage substrate.
//
// The production Turbulence cluster (SQL Server over RAID-5) survives slow
// disks, transient read errors and node loss; the scheduler's claims must
// hold under those faults, not only on a perfect substrate. This module
// injects such faults *deterministically on the virtual clock*: every
// decision is a pure hash of (seed, atom, attempt), so a faulty run is
// exactly reproducible regardless of read interleaving, and a fully zeroed
// FaultSpec is indistinguishable from no injector at all (no RNG stream is
// consumed, no virtual time is charged).
//
// Fault classes modelled (paper context: the public turbulence database
// cluster and LifeRaft deployments, PAPERS.md):
//   * transient read errors — a read fails but an immediate or backed-off
//     retry may succeed (media hiccups, RAID timeouts);
//   * latency spikes — a read succeeds but a straggling spindle charges
//     extra virtual time (degraded RAID reads, contention from scrubbing);
//   * node-down events — a database node dies at a virtual time (consumed
//     by TurbulenceCluster, which re-runs the node's unfinished work on
//     surviving replicas).
#pragma once

#include <cstdint>
#include <vector>

#include "storage/atom.h"
#include "util/sim_time.h"
#include "util/slot_index.h"
#include "util/typed_id.h"

namespace jaws::storage {

/// One node of the cluster dies at virtual time `at`; its unfinished work
/// fails over to surviving replicas (see TurbulenceCluster).
struct NodeDownEvent {
    util::NodeIndex node;
    util::SimTime at;
};

/// Seeded description of every fault the run injects. Default-constructed ==
/// fault-free: the storage path short-circuits and behaves bit-identically
/// to a build without the fault layer.
struct FaultSpec {
    std::uint64_t seed = 0xFA17;

    /// Probability that any single read attempt fails transiently.
    double transient_error_rate = 0.0;

    /// Probability that a (successful) read straggles, and the mean of the
    /// exponentially distributed extra latency it then charges.
    double latency_spike_rate = 0.0;
    double latency_spike_mean_ms = 50.0;

    /// Probability that a (successful) read gets *stuck*: the request is
    /// eventually answered but only after a large fixed stall (a hung RAID
    /// command being error-recovered, an I/O path reset). Unlike latency
    /// spikes, the stall is constant and huge — exactly the straggler class
    /// hedged replica reads exist to cut off.
    double stuck_read_rate = 0.0;
    double stuck_read_ms = 2000.0;

    /// Cluster-level node deaths (ignored by single-node engines).
    std::vector<NodeDownEvent> node_down;

    /// Whether any storage-level fault can fire (node_down is cluster-level
    /// and does not by itself enable the storage path).
    bool storage_faults_enabled() const noexcept {
        return transient_error_rate > 0.0 || latency_spike_rate > 0.0 ||
               stuck_read_rate > 0.0;
    }
};

/// What the injector decided for one read attempt.
struct FaultOutcome {
    bool failed = false;     ///< The attempt returns no data.
    bool stuck = false;      ///< The attempt stalled for a stuck-read delay.
    util::SimTime extra_latency;  ///< Straggler delay charged on success
                                  ///< (spike + stuck stall combined).
};

/// Injection accounting (folded into RunReport::faults).
struct FaultStats {
    std::uint64_t transient_faults = 0;  ///< Read attempts failed transiently.
    std::uint64_t latency_spikes = 0;    ///< Successful-but-straggling reads.
    std::uint64_t stuck_reads = 0;       ///< Read attempts that stalled stuck.
    util::SimTime spike_delay;           ///< Total spike straggler time injected.
    util::SimTime stuck_delay;           ///< Total stuck-read stall time (disjoint).

    bool operator==(const FaultStats&) const = default;
};

/// Deterministic per-read fault source. Decisions depend only on
/// (spec.seed, atom, per-atom attempt index), never on call order across
/// atoms, so two runs with the same seed produce bit-identical fault
/// schedules even if the scheduler interleaves reads differently.
class FaultInjector {
  public:
    explicit FaultInjector(const FaultSpec& spec) : spec_(spec) {}

    /// Decide the fate of the next read attempt against `id`, advancing that
    /// atom's attempt counter. Call only when enabled().
    FaultOutcome on_read(const AtomId& id);

    /// Whether any storage fault can fire (callers skip the layer otherwise).
    bool enabled() const noexcept { return spec_.storage_faults_enabled(); }

    const FaultSpec& spec() const noexcept { return spec_; }
    const FaultStats& stats() const noexcept { return stats_; }

  private:
    /// Uniform [0, 1) drawn from hash(seed, atom key, attempt, stream).
    double hash_uniform(const AtomId& id, std::uint64_t attempt,
                        std::uint64_t stream) const noexcept;

    FaultSpec spec_;
    FaultStats stats_;
    util::SlotMap<std::uint64_t> attempts_;  ///< Atom key -> read attempts so far.
};

}  // namespace jaws::storage
