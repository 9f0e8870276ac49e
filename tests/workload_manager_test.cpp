// Tests for the workload manager: Eq. 1/2 metrics, ordering, two-level
// selection and the URC oracle view (sched/workload_manager.h).
#include <gtest/gtest.h>

#include <set>

#include "sched/workload_manager.h"
#include "util/morton.h"

namespace jaws::sched {
namespace {

storage::AtomId atom(std::uint32_t t, std::uint64_t m) { return storage::AtomId{t, m}; }

SubQuery sub(workload::QueryId q, storage::AtomId a, std::uint64_t positions,
             double enqueue_ms = 0.0) {
    SubQuery s;
    s.query = q;
    s.atom = a;
    s.positions = positions;
    s.enqueue_time = util::SimTime::from_millis(enqueue_ms);
    return s;
}

/// Scripted residency probe.
class FakeProbe final : public ResidencyProbe {
  public:
    bool resident(const storage::AtomId& a) const override { return cached.contains(a); }
    std::set<storage::AtomId> cached;
};

CostConstants cost() {
    CostConstants c;
    c.t_b_ms = 25.0;
    c.t_m_ms = 0.005;
    c.atoms_per_step = 64;
    return c;
}

TEST(WorkloadManager, EmptyInitially) {
    WorkloadManager m(cost(), nullptr, 0.0);
    EXPECT_TRUE(m.empty());
    EXPECT_FALSE(m.pick_best_atom().has_value());
    EXPECT_TRUE(m.pick_two_level_batch(5, util::SimTime::zero()).empty());
}

TEST(WorkloadManager, UtilityMatchesEquationOne) {
    WorkloadManager m(cost(), nullptr, 0.0);
    m.enqueue(sub(1, atom(0, 3), 1000));
    // U_t = W / (T_b * phi + T_m * W) = 1000 / (25 + 5) with phi = 1.
    EXPECT_NEAR(m.atom_utility(atom(0, 3)), 1000.0 / 30.0, 1e-9);
}

TEST(WorkloadManager, UtilityAggregatesQueue) {
    WorkloadManager m(cost(), nullptr, 0.0);
    m.enqueue(sub(1, atom(0, 3), 600));
    m.enqueue(sub(2, atom(0, 3), 400));
    EXPECT_NEAR(m.atom_utility(atom(0, 3)), 1000.0 / 30.0, 1e-9);
    EXPECT_EQ(m.pending_positions(), 1000u);
    EXPECT_EQ(m.pending_subqueries(), 2u);
    EXPECT_EQ(m.pending_atoms(), 1u);
}

TEST(WorkloadManager, CachedAtomHasPhiZero) {
    FakeProbe probe;
    probe.cached.insert(atom(0, 3));
    WorkloadManager m(cost(), &probe, 0.0);
    m.enqueue(sub(1, atom(0, 3), 1000));
    // phi = 0 => U_t = W / (T_m W) = 1/T_m = 200.
    EXPECT_NEAR(m.atom_utility(atom(0, 3)), 200.0, 1e-9);
}

TEST(WorkloadManager, ResidencyChangeReordersPicks) {
    FakeProbe probe;
    WorkloadManager m(cost(), &probe, 0.0);
    m.enqueue(sub(1, atom(0, 1), 5000));  // hot but uncached
    m.enqueue(sub(2, atom(0, 2), 100));   // cold
    EXPECT_EQ(m.pick_best_atom()->morton, 1u);
    // Atom 2 becomes cached: its U_t jumps to 200, beating atom 1's ~90.9.
    probe.cached.insert(atom(0, 2));
    m.on_residency_changed(atom(0, 2));
    EXPECT_EQ(m.pick_best_atom()->morton, 2u);
}

TEST(WorkloadManager, ContentionOrderAtAlphaZero) {
    WorkloadManager m(cost(), nullptr, 0.0);
    m.enqueue(sub(1, atom(0, 1), 100, 0.0));
    m.enqueue(sub(2, atom(0, 2), 5000, 1e6));  // newer but far more contended
    EXPECT_EQ(m.pick_best_atom()->morton, 2u);
}

TEST(WorkloadManager, ArrivalOrderAtAlphaOne) {
    WorkloadManager m(cost(), nullptr, 1.0);
    m.enqueue(sub(1, atom(0, 1), 100, 0.0));    // older
    m.enqueue(sub(2, atom(0, 2), 5000, 10.0));  // hotter but newer
    EXPECT_EQ(m.pick_best_atom()->morton, 1u);
}

TEST(WorkloadManager, SetAlphaRebuildsOrdering) {
    WorkloadManager m(cost(), nullptr, 0.0);
    m.enqueue(sub(1, atom(0, 1), 100, 0.0));
    m.enqueue(sub(2, atom(0, 2), 5000, 100000.0));
    EXPECT_EQ(m.pick_best_atom()->morton, 2u);
    m.set_alpha(1.0);
    EXPECT_EQ(m.pick_best_atom()->morton, 1u);
    EXPECT_DOUBLE_EQ(m.alpha(), 1.0);
}

TEST(WorkloadManager, DrainRemovesQueue) {
    WorkloadManager m(cost(), nullptr, 0.0);
    m.enqueue(sub(1, atom(0, 1), 100));
    m.enqueue(sub(2, atom(0, 1), 200));
    const auto items = m.drain_atom(atom(0, 1));
    ASSERT_EQ(items.size(), 2u);
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.atom_utility(atom(0, 1)), 0.0);
    EXPECT_TRUE(m.drain_atom(atom(0, 1)).empty());
}

TEST(WorkloadManager, DrainPreservesEnqueueOrder) {
    WorkloadManager m(cost(), nullptr, 0.0);
    for (workload::QueryId q = 1; q <= 5; ++q) m.enqueue(sub(q, atom(0, 1), 10));
    const auto items = m.drain_atom(atom(0, 1));
    for (std::size_t i = 0; i < items.size(); ++i) ASSERT_EQ(items[i].query, i + 1);
}

TEST(WorkloadManager, TimestepMeanUtility) {
    WorkloadManager m(cost(), nullptr, 0.0);
    m.enqueue(sub(1, atom(3, 1), 1000));
    m.enqueue(sub(2, atom(3, 2), 1000));
    const double single = 1000.0 / 30.0;
    EXPECT_NEAR(m.timestep_mean_utility(3), single, 1e-9);
    EXPECT_EQ(m.timestep_mean_utility(4), 0.0);
}

TEST(WorkloadManager, TwoLevelPicksBusiestStep) {
    WorkloadManager m(cost(), nullptr, 0.0);
    // Step 1: one hot atom; step 2: three moderately hot atoms — more total
    // contention mass, so the mean over all 64 atoms of the step is higher.
    m.enqueue(sub(1, atom(1, 1), 2000));
    m.enqueue(sub(2, atom(2, 1), 1500));
    m.enqueue(sub(3, atom(2, 2), 1500));
    m.enqueue(sub(4, atom(2, 3), 1500));
    const auto batch = m.pick_two_level_batch(10, util::SimTime::zero());
    ASSERT_FALSE(batch.empty());
    for (const auto& a : batch) EXPECT_EQ(a.timestep, 2u);
}

TEST(WorkloadManager, TwoLevelCapsAtK) {
    WorkloadManager m(cost(), nullptr, 0.0);
    for (std::uint64_t i = 0; i < 20; ++i) m.enqueue(sub(i + 1, atom(0, i), 1000));
    EXPECT_EQ(m.pick_two_level_batch(5, util::SimTime::zero()).size(), 5u);
}

TEST(WorkloadManager, TwoLevelMortonSorted) {
    WorkloadManager m(cost(), nullptr, 0.0);
    m.enqueue(sub(1, atom(0, 9), 1000));
    m.enqueue(sub(2, atom(0, 2), 1000));
    m.enqueue(sub(3, atom(0, 5), 1000));
    const auto batch = m.pick_two_level_batch(10, util::SimTime::zero());
    ASSERT_EQ(batch.size(), 3u);
    EXPECT_EQ(batch[0].morton, 2u);
    EXPECT_EQ(batch[1].morton, 5u);
    EXPECT_EQ(batch[2].morton, 9u);
}

TEST(WorkloadManager, TwoLevelExcludesBelowMeanAtoms) {
    WorkloadManager m(cost(), nullptr, 0.0);
    // One very hot atom and one barely-pending atom in the same step. The
    // step mean over 64 atoms is small but positive; an atom whose U_t is
    // below it (impossible here) would be excluded — instead verify that all
    // returned atoms meet the bar and the hot atom is present.
    m.enqueue(sub(1, atom(0, 1), 20000));
    m.enqueue(sub(2, atom(0, 2), 16));
    const auto batch = m.pick_two_level_batch(10, util::SimTime::zero());
    const double mean = m.timestep_mean_utility(0) * 2 / 64.0;
    for (const auto& a : batch) EXPECT_GE(m.atom_utility(a), mean - 1e-9);
    EXPECT_NE(std::find_if(batch.begin(), batch.end(),
                           [](const storage::AtomId& a) { return a.morton == 1; }),
              batch.end());
}

TEST(WorkloadManager, AgedStepSelectionPrefersOldWorkAtHighAlpha) {
    WorkloadManager m(cost(), nullptr, 1.0);
    // Step 0 has old work, step 1 newer but hotter.
    m.enqueue(sub(1, atom(0, 1), 100, 0.0));
    m.enqueue(sub(2, atom(1, 1), 9000, 500000.0));
    const auto batch = m.pick_two_level_batch(5, util::SimTime::from_millis(600000.0));
    ASSERT_FALSE(batch.empty());
    EXPECT_EQ(batch.front().timestep, 0u);
}

TEST(WorkloadManager, AuditToleratesTheResidueOfRemovedUtilities) {
    // A step's running utility sum keeps the rounding residue of values it
    // has since dropped. With T_m = 1e-8 ms a resident atom's utility is
    // ~1e8 (ulp 1.5e-8), so one flip and drain leaves a 0.04 sum 6.6e-9 off
    // its re-derived value, six times a 1e-9 relative tolerance: the state
    // LifeRaft_2 reached on the 400-job Fig. 10 trace after 211 615 updates
    // at default costs.
    CostConstants c = cost();
    c.t_m_ms = 1e-8;
    FakeProbe probe;
    WorkloadManager m(c, &probe, 0.0);
    m.enqueue(sub(1, atom(0, 0), 1));
    m.enqueue(sub(2, atom(0, 1), 1));
    probe.cached.insert(atom(0, 1));
    m.on_residency_changed(atom(0, 1));
    EXPECT_GT(m.atom_utility(atom(0, 1)), 9e7);
    m.drain_atom(atom(0, 1));
    EXPECT_TRUE(m.audit());
}

TEST(WorkloadManager, OldestTimeTracksFirstEnqueue) {
    WorkloadManager m(cost(), nullptr, 1.0);
    // Enqueue times never fall within one atom's queue (preprocess stamps
    // the event time); across queues they may.
    m.enqueue(sub(1, atom(0, 1), 10, 100.0));
    m.enqueue(sub(2, atom(0, 1), 10, 150.0));  // later enqueue: the queue's
                                               // oldest stays at 100
    m.enqueue(sub(3, atom(0, 2), 10, 80.0));
    m.enqueue(sub(4, atom(0, 3), 10, 120.0));
    EXPECT_TRUE(m.audit());
    // At alpha 1 the oldest queue wins. Atom 2, enqueued at 80, is older
    // than atom 1's first enqueue at 100; atom 1 then beats atom 3 (120),
    // which it would not if its second enqueue had moved it to 150.
    EXPECT_EQ(m.pick_best_atom()->morton, 2u);
    m.drain_atom(atom(0, 2));
    EXPECT_EQ(m.pick_best_atom()->morton, 1u);
}

}  // namespace
}  // namespace jaws::sched
