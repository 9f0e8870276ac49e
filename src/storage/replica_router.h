// Replica-aware read routing for the unified cluster kernel.
//
// The paper's production cluster lays atoms out by chained declustering
// (Li et al., PAPERS.md): the range owned by node n is replicated on nodes
// n+1 .. n+k-1 (mod N). PR 6 already exploited replicas *within* one node
// (hedged duplicate reads on another disk channel); this interface exposes
// them *across* nodes: when every node shares one event kernel, a demand read
// for an atom may be served by any surviving member of its replica chain, and
// the kernel picks the replica whose modelled disk queue is shallowest —
// replication as a load-balancing mechanism, not just a durability one.
//
// The engine stays ignorant of cluster topology: it asks its router (if any)
// where to send each demand or hedge read and gets back concrete storage
// (AtomStore) and modelled-disk (SimResource) targets plus the serving node
// id for accounting. A standalone engine has no router and serves everything
// locally — byte-identical to the pre-cluster behaviour.
//
// All node identities here are strong util::NodeIndex values and atoms are
// identified by AtomId — the raw-integer signatures this interface used to
// have let a Morton code or a size_t node index slip through unconverted
// (see ISSUE 9); the raw-id-api analyzer pass keeps it that way.
#pragma once

#include <cstddef>

#include "storage/atom_store.h"
#include "util/event_queue.h"
#include "util/typed_id.h"

namespace jaws::storage {

/// Concrete targets for one routed read: the store that renders the bytes
/// and models the cost, the disk resource the read contends on, and the
/// serving node (for replica-served accounting).
struct ReadRoute {
    AtomStore* store = nullptr;
    util::SimResource* disk = nullptr;
    util::NodeIndex node;
};

/// Cross-node read router. Implemented by the unified cluster kernel;
/// standalone engines run without one and route every read to themselves.
class ReplicaRouter {
  public:
    virtual ~ReplicaRouter() = default;

    /// Route a demand read for `atom` issued by node `self`. Must return a
    /// valid route (the implementation falls back to `self` when no replica
    /// of the atom's chain survives — the read then fails like any read on a
    /// dead store would).
    virtual ReadRoute route_read(util::NodeIndex self, const AtomId& atom) = 0;

    /// Route a hedge (duplicate) read for `atom` whose primary was routed to
    /// `primary`. Implementations should prefer a surviving replica other
    /// than `primary` so the hedge rides independent hardware; with no
    /// alternative the hedge lands back on `primary`'s disk (a different
    /// channel, as in the single-node hedging of PR 6).
    virtual ReadRoute route_hedge(util::NodeIndex self, const AtomId& atom,
                                  util::NodeIndex primary) = 0;

    /// Distinct disks that can currently serve node `self`'s demand reads:
    /// the surviving members of its own range's replica chain (>= 1; a node
    /// always reaches its own disk while alive). The engine widens its read
    /// pipeline window by this factor — replication multiplies the I/O
    /// concurrency a node can keep in flight, not just where each read
    /// lands. The default (1) preserves standalone behaviour bit-exactly.
    virtual std::size_t read_concurrency(util::NodeIndex self) const {
        (void)self;
        return 1;
    }
};

}  // namespace jaws::storage
