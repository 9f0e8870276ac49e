// The Turbulence database cluster facade (paper Fig. 7).
//
// In production, data are partitioned spatially across nodes, each running
// its own JAWS instance; incoming queries are routed to the nodes owning
// their atoms and replicas absorb both load and failures. One event kernel
// reproduces that architecture: every node's engine shares ONE
// util::EventQueue. Each node is a set of SimResource disk/CPU channels plus
// its own scheduler state; query arrivals are routed to owning nodes at
// event time (node_of at route time, not partition time); replicated atom
// reads may be served by any surviving replica in the chain n .. n+k-1 —
// the kernel diverts a read to the chain member with the shallowest modeled
// disk queue once the owner's backlog exceeds it by a locality margin (a
// diversion forfeits the owner's sequential head position), so replication
// doubles as load balancing. Node deaths fire inside the kernel: the dead
// node finishes its in-flight batch, then its unfinished work is re-routed
// in-line to surviving replicas, contending for their modeled disks and
// CPUs (and interacting with hedging, retries and deadline budgets) instead
// of being summed after the fact. At replication = 1 with no node deaths
// each node's report is bit-identical to a standalone Engine run over its
// partition() share (tests/cluster_equivalence_test.cpp).
//
// Atoms are assigned to nodes by contiguous Morton ranges (preserving
// spatial locality within a node); ranges may be replicated k ways (range
// owned by node n is also stored on nodes n+1 .. n+k-1 mod N, the classic
// chained declustering layout of the JHU turbulence cluster). With
// replication 1 a dead node's unfinished queries are *lost* (reported,
// never silently dropped) — exactly the trade-off a production deployment
// makes. Reported cluster throughput uses the slowest node's virtual
// makespan — the cluster is done when its last node is.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.h"
#include "core/metrics.h"
#include "util/typed_id.h"
#include "workload/job.h"

namespace jaws::core {

/// Cluster-wide configuration: one node template replicated `nodes` times.
struct ClusterConfig {
    EngineConfig node;       ///< Per-node stack configuration.
    std::size_t nodes = 4;   ///< Number of database nodes.
    /// Copies of each Morton range (1 = no redundancy). Range owned by node
    /// n is also readable on nodes n+1 .. n+replication-1 (mod nodes).
    std::size_t replication = 1;

    /// Reject nonsensical cluster configurations (zero nodes, node counts
    /// beyond util::NodeIndex's 32-bit range, replication
    /// outside [1, nodes], node-down events naming nonexistent nodes, more
    /// than one node-down event for the same node, or a node-down at tick 0
    /// — a node that was never up) with a descriptive std::invalid_argument
    /// naming the offending field; also validates the node config.
    void validate() const;
};

/// Aggregated cluster results.
struct ClusterReport {
    /// One report per node (failover work lands in the survivors' reports).
    /// Timelines stay per node, their windows pinned to the cluster origin;
    /// the cluster keeps no merged timeline.
    std::vector<RunReport> per_node;
    util::SimTime makespan;               ///< Slowest node's virtual makespan
                                          ///< (including failover work).
    double total_throughput_qps = 0.0;    ///< Total query parts / makespan.
    double mean_response_ms = 0.0;        ///< Query-part weighted mean response.
    double cache_hit_rate = 0.0;          ///< Aggregate over all nodes.
    double mean_disk_utilization = 0.0;   ///< Makespan-weighted mean over nodes.
    double mean_cpu_utilization = 0.0;    ///< Makespan-weighted mean over nodes.

    /// Cluster-wide response-time tail, computed over the *pooled* per-query
    /// samples of every node — exact percentiles, not an
    /// average of per-node percentiles (which would understate the tail).
    /// NaN when no query part completed anywhere (rendered "n/a").
    double p99_response_ms = 0.0;
    double p999_response_ms = 0.0;

    // --- routing accounting ---
    std::uint64_t routed_queries = 0;     ///< Query parts routed to a node at
                                          ///< their arrival event.
    std::uint64_t rerouted_arrivals = 0;  ///< Parts whose owner was already
                                          ///< dead at arrival, sent to a
                                          ///< surviving replica instead.
    std::uint64_t replica_reads = 0;      ///< Atom reads served by a replica
                                          ///< other than the reader's node.
    // --- fault & recovery accounting ---
    std::size_t dead_nodes = 0;       ///< Nodes killed by node-down events.
    std::size_t failovers = 0;        ///< Deaths whose work a replica picked up.
    std::size_t requeued_queries = 0; ///< Query parts re-routed off a dead node.
    std::size_t lost_queries = 0;     ///< Parts lost for lack of a surviving replica.
    std::uint64_t degraded_queries = 0;  ///< Sum of per-node degraded completions.
    std::uint64_t read_retries = 0;      ///< Sum over nodes.
    std::uint64_t read_failures = 0;     ///< Sum over nodes.

    // --- hedging & deadline accounting (sums over nodes; all zero when
    // HedgeSpec/deadline budgets are off) ---
    std::uint64_t hedges_issued = 0;
    std::uint64_t hedges_won = 0;
    std::uint64_t hedges_lost = 0;
    std::uint64_t cancellations = 0;
    util::SimTime wasted_service;        ///< Rendered disk time of cancelled losers.
    std::uint64_t deadline_misses = 0;
    std::uint64_t retries_suppressed = 0;

    /// Member-wise equality over every field, each node's report included
    /// (see RunReport::operator==).
    bool operator==(const ClusterReport&) const = default;
};

/// Spatially partitioned multi-node deployment.
class TurbulenceCluster {
  public:
    explicit TurbulenceCluster(const ClusterConfig& config);

    /// Node owning the atom with Morton code `morton` under `atoms_per_step`
    /// atoms per time step split into `nodes` contiguous Morton ranges.
    /// `morton` is a spatial coordinate, not an identity — hence the raw
    /// integer; the result is a strong NodeIndex (callers must not do
    /// arithmetic on it). `nodes` must fit util::NodeIndex (validate()
    /// enforces this for cluster configs).
    static util::NodeIndex node_of(std::uint64_t morton,
                                   std::uint64_t atoms_per_step,
                                   std::size_t nodes);

    /// Project one job onto every node it touches: element n of the result
    /// holds the queries whose footprint atoms node n owns (queries keep
    /// their IDs, footprints filtered, each entry's positions moved with it,
    /// jobs re-sequenced; element n is empty when the job does not touch
    /// node n). The job's queries must be in workload::Query's layout, which
    /// run() checks first (require_footprints_fit); the parts keep it. The
    /// kernel splits each job this way at route time; partition() applies
    /// it to a whole workload.
    std::vector<workload::Job> project(const workload::Job& job) const;

    /// Project `workload` onto each node (queries keep their IDs; footprints
    /// are filtered to the node's atoms; queries that touch no atom of the
    /// node are dropped and the job re-sequenced). Exposed for tests.
    std::vector<workload::Workload> partition(const workload::Workload& workload) const;

    /// Execute `workload` (jobs sorted by arrival, see require_arrival_order)
    /// on the shared event kernel and aggregate.
    ClusterReport run(const workload::Workload& workload) const;

  private:
    ClusterConfig config_;
};

}  // namespace jaws::core
