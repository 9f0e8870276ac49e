// Schedule-perturbation determinism checker (core/engine.h + util/event_queue.h).
//
// The kernel's ordering contract fixes (time, priority, source); the final
// insertion-order component is *arbitrary but stable*, and for commutative
// event classes — arrivals, visibility promotions, dispatch ticks — no
// observable result may depend on it. This suite runs the same fixtures
// under util::TiePerturbation (salted permutation of same-tick ties in the
// commutative classes, offset event ids, tombstone entries disturbing the
// heap layout) and asserts that every report and per-query outcome equals
// the unperturbed run's, field for field (the reports' defaulted ==, nested
// stats, timelines and response vectors included). Service completions
// (Engine::kPriService) are
// deliberately *not* permuted: RunReport::sample_digest folds sample bytes
// in completion-event order, so their same-tick order is semantically
// visible — that boundary is part of the documented contract, and the
// checker's own teeth are proved by a toy client below that the permutation
// demonstrably reorders.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/engine.h"
#include "util/event_queue.h"
#include "workload/generator.h"

namespace jaws::core {
namespace {

/// Commutative priority classes: everything the engine schedules except
/// service completions and the (singleton, class-exclusive) halt event.
constexpr std::uint64_t kCommutativeMask = (1ULL << Engine::kPriArrival) |
                                           (1ULL << Engine::kPriVisibility) |
                                           (1ULL << Engine::kPriDispatch);

/// The perturbations every fixture must be invariant under.
std::vector<std::pair<std::string, util::TiePerturbation>> perturbations() {
    std::vector<std::pair<std::string, util::TiePerturbation>> out;
    out.emplace_back("identity", util::TiePerturbation{});
    util::TiePerturbation salted;
    salted.salt = 0x9E3779B97F4A7C15ULL;
    salted.permute_priorities = kCommutativeMask;
    out.emplace_back("salted-commutative", salted);
    util::TiePerturbation offset;
    offset.id_offset = 1ULL << 40;
    out.emplace_back("id-offset", offset);
    util::TiePerturbation tombstones;
    tombstones.tombstone_stride = 3;
    out.emplace_back("tombstones", tombstones);
    util::TiePerturbation everything;
    everything.salt = 0xD1B54A32D192ED03ULL;
    everything.permute_priorities = kCommutativeMask;
    everything.id_offset = 12345;
    everything.tombstone_stride = 5;
    out.emplace_back("all-at-once", everything);
    return out;
}

EngineConfig fixture_config() {
    EngineConfig c;
    c.grid.voxels_per_side = 256;
    c.grid.atom_side = 32;
    c.grid.ghost = 2;
    c.grid.timesteps = 8;
    c.field.modes = 6;
    c.cache.capacity_atoms = 32;
    c.run_length = 50;
    // A concurrent pipeline maximises same-tick ties (the serial engine
    // rarely has two pending events at one instant).
    c.io_depth = 4;
    c.compute_workers = 3;
    c.timeline_window_s = 50.0;
    return c;
}

workload::Workload fixture_workload(const EngineConfig& config, std::uint64_t seed) {
    workload::WorkloadSpec spec;
    spec.jobs = 30;
    spec.seed = seed;
    const field::SyntheticField field(config.field);
    return workload::generate_workload(spec, config.grid, field);
}

TEST(Perturbation, SingleNodeReportsAreTieBreakInvariant) {
    const EngineConfig base = fixture_config();
    const workload::Workload w = fixture_workload(base, 3);

    Engine reference(base);
    const RunReport ref = reference.run(w);

    for (const auto& [name, perturbation] : perturbations()) {
        SCOPED_TRACE("perturbation `" + name + "`");
        EngineConfig cfg = base;
        cfg.tie_perturbation = perturbation;
        Engine engine(cfg);
        const RunReport r = engine.run(w);
        EXPECT_TRUE(r == ref) << "report drifted";
        EXPECT_TRUE(engine.outcomes() == reference.outcomes()) << "outcomes drifted";
    }
}

TEST(Perturbation, MaterializedSampleDigestIsTieBreakInvariant) {
    EngineConfig base = fixture_config();
    base.materialize_data = true;
    base.grid.voxels_per_side = 128;  // small but real voxel payloads
    base.grid.ghost = 4;  // materialised runs need the full kernel half-width
    base.grid.timesteps = 4;
    base.field.modes = 4;
    base.cache.capacity_atoms = 16;

    workload::WorkloadSpec spec;
    spec.jobs = 8;
    spec.seed = 5;
    spec.max_positions = 800;  // bound the real interpolation work per query
    const field::SyntheticField field(base.field);
    workload::Workload w = workload::generate_workload(spec, base.grid, field);
    workload::materialize_positions(w, base.grid, /*seed=*/17);

    Engine reference(base);
    const RunReport ref = reference.run(w);
    ASSERT_NE(ref.sample_digest, kFnvOffset) << "fixture produced no samples";

    for (const auto& [name, perturbation] : perturbations()) {
        SCOPED_TRACE("perturbation `" + name + "`");
        EngineConfig cfg = base;
        cfg.tie_perturbation = perturbation;
        Engine engine(cfg);
        const RunReport r = engine.run(w);
        EXPECT_EQ(r.sample_digest, ref.sample_digest) << "sample bytes drifted";
        EXPECT_TRUE(r == ref) << "report drifted";
        EXPECT_TRUE(engine.outcomes() == reference.outcomes()) << "outcomes drifted";
    }
}

TEST(Perturbation, UnifiedClusterReportsAreTieBreakInvariant) {
    ClusterConfig base;
    base.node = fixture_config();
    base.nodes = 3;
    base.replication = 2;
    const workload::Workload w = fixture_workload(base.node, 7);

    const ClusterReport expected = TurbulenceCluster(base).run(w);

    for (const auto& [name, perturbation] : perturbations()) {
        ClusterConfig cfg = base;
        cfg.node.tie_perturbation = perturbation;
        EXPECT_TRUE(TurbulenceCluster(cfg).run(w) == expected)
            << "cluster report drifted under perturbation `" << name << "`";
    }
}

// --- the checker has teeth -------------------------------------------------
//
// A deliberately order-dependent toy client: two same-tick events of one
// permuted class append to a log. The salted permutation must actually flip
// their firing order — if it did not, every invariance test above would
// pass vacuously.

std::vector<int> toy_firing_order(const util::TiePerturbation& p) {
    util::EventQueue q;
    q.set_perturbation(p);
    std::vector<int> order;
    for (int i = 0; i < 4; ++i)
        q.schedule(util::SimTime::from_micros(10), /*priority=*/2,
                   [&order, i] { order.push_back(i); });
    while (q.run_one()) {
    }
    return order;
}

TEST(Perturbation, SaltedPermutationReallyReordersSameTickTies) {
    const std::vector<int> fifo = toy_firing_order(util::TiePerturbation{});
    EXPECT_EQ(fifo, (std::vector<int>{0, 1, 2, 3}));

    util::TiePerturbation salted;
    salted.salt = 0x3;  // flips the low id bits: 0<->3, 1<->2 within the tick
    salted.permute_priorities = 1ULL << 2;
    EXPECT_EQ(toy_firing_order(salted), (std::vector<int>{3, 2, 1, 0}))
        << "the salt failed to permute same-tick insertion ties";
}

TEST(Perturbation, UnpermutedClassesKeepFifoOrderUnderSalt) {
    util::TiePerturbation salted;
    salted.salt = 0x3;
    salted.permute_priorities = 1ULL << 5;  // some *other* class
    EXPECT_EQ(toy_firing_order(salted), (std::vector<int>{0, 1, 2, 3}))
        << "the salt leaked into a class it was not asked to permute";
}

TEST(Perturbation, PerturbationRejectedOnceEventsWereIssued) {
    util::EventQueue q;
    q.schedule(util::SimTime::zero(), 0, [] {});
    EXPECT_THROW(q.set_perturbation(util::TiePerturbation{}), std::logic_error);
}

}  // namespace
}  // namespace jaws::core
