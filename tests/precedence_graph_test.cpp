// Tests for the precedence/gating graph (sched/precedence_graph.h).
#include <gtest/gtest.h>

#include <algorithm>

#include "sched/precedence_graph.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace jaws::sched {
namespace {

workload::Query query_on(workload::JobId job, std::uint32_t seq, std::uint32_t step,
                         std::initializer_list<std::uint64_t> mortons) {
    workload::Query q;
    q.id = job * 1000 + seq;
    q.job = job;
    q.seq_in_job = seq;
    q.timestep = step;
    for (const std::uint64_t m : mortons)
        q.footprint.push_back(workload::AtomRequest{{step, m}, 10});
    std::sort(q.footprint.begin(), q.footprint.end(),
              [](const workload::AtomRequest& a, const workload::AtomRequest& b) {
                  return a.atom.morton < b.atom.morton;
              });
    return q;
}

/// Ordered job visiting the given atom per query (single shared step).
workload::Job chain(workload::JobId id, std::initializer_list<std::uint64_t> regions,
                    std::uint32_t step = 0) {
    workload::Job j;
    j.id = id;
    j.type = workload::JobType::kOrdered;
    std::uint32_t seq = 0;
    for (const std::uint64_t r : regions) j.queries.push_back(query_on(id, seq++, step, {r}));
    return j;
}

/// Ordered job on step 0 whose i-th query touches the i-th atom list.
workload::Job footprints(workload::JobId id,
                         std::initializer_list<std::initializer_list<std::uint64_t>> atoms) {
    workload::Job j;
    j.id = id;
    j.type = workload::JobType::kOrdered;
    std::uint32_t seq = 0;
    for (const auto& a : atoms) j.queries.push_back(query_on(id, seq++, 0, a));
    return j;
}

TEST(PrecedenceGraph, BatchedQueriesPromoteImmediately) {
    PrecedenceGraph g(true);
    workload::Job j;
    j.id = 1;
    j.type = workload::JobType::kBatched;
    j.queries.push_back(query_on(1, 0, 0, {1}));
    j.queries.push_back(query_on(1, 1, 0, {2}));
    g.add_job(j);
    EXPECT_EQ(g.state(1000), QueryState::kWait);
    const auto p0 = g.on_query_visible(1000);
    ASSERT_EQ(p0.size(), 1u);
    EXPECT_EQ(g.state(1000), QueryState::kQueue);
    const auto p1 = g.on_query_visible(1001);
    ASSERT_EQ(p1.size(), 1u);
}

TEST(PrecedenceGraph, OrderedChainStateMachine) {
    PrecedenceGraph g(true);
    const workload::Job j = chain(1, {10, 20, 30});
    g.add_job(j);
    for (const auto& q : j.queries) EXPECT_EQ(g.state(q.id), QueryState::kWait);

    auto promoted = g.on_query_visible(1000);
    ASSERT_EQ(promoted.size(), 1u);
    EXPECT_EQ(g.state(1000), QueryState::kQueue);
    EXPECT_EQ(g.state(1001), QueryState::kWait);

    g.on_query_done(1000);
    EXPECT_EQ(g.state(1000), QueryState::kDone);  // pruned => reports done
    promoted = g.on_query_visible(1001);
    ASSERT_EQ(promoted.size(), 1u);
    EXPECT_TRUE(g.check_invariants());
}

TEST(PrecedenceGraph, GatingAlignsTwoIdenticalChains) {
    PrecedenceGraph g(true);
    const workload::Job a = chain(1, {10, 20, 30});
    const workload::Job b = chain(2, {10, 20, 30});
    g.add_job(a);
    g.add_job(b);
    EXPECT_EQ(g.stats().edges_admitted, 3u);
    EXPECT_EQ(g.partner_count(1000), 1u);
    EXPECT_EQ(g.partner_count(2000), 1u);

    // Job 1's head becomes visible: gated on job 2's head (still WAIT).
    auto promoted = g.on_query_visible(1000);
    EXPECT_TRUE(promoted.empty());
    EXPECT_EQ(g.state(1000), QueryState::kReady);
    EXPECT_TRUE(g.has_ready());

    // Job 2's head becomes visible: both promote together (co-scheduled).
    promoted = g.on_query_visible(2000);
    ASSERT_EQ(promoted.size(), 2u);
    EXPECT_EQ(g.state(1000), QueryState::kQueue);
    EXPECT_EQ(g.state(2000), QueryState::kQueue);
    EXPECT_FALSE(g.has_ready());
    EXPECT_TRUE(g.check_invariants());
}

TEST(PrecedenceGraph, DonePartnerSatisfiesGate) {
    PrecedenceGraph g(true);
    const workload::Job a = chain(1, {10, 20});
    const workload::Job b = chain(2, {10, 20});
    g.add_job(a);
    g.add_job(b);
    g.on_query_visible(1000);
    g.on_query_visible(2000);  // both queue
    g.on_query_done(2000);     // job 2's head finishes first
    // Job 2's second query promotes alone if job 1's q2 is not yet ready...
    auto promoted = g.on_query_visible(2001);
    EXPECT_TRUE(promoted.empty());  // gated on job 1's q1 (WAIT)
    g.on_query_done(1000);
    promoted = g.on_query_visible(1001);
    ASSERT_EQ(promoted.size(), 2u);  // both seconds co-scheduled
}

TEST(PrecedenceGraph, OffsetAlignmentGatesMatchingRegions) {
    PrecedenceGraph g(true);
    const workload::Job a = chain(1, {1, 2, 3, 4});
    const workload::Job b = chain(2, {3, 4, 5});
    g.add_job(a);
    g.add_job(b);
    // Alignment (Fig. 2): a[2]~b[0], a[3]~b[1].
    EXPECT_EQ(g.stats().edges_admitted, 2u);
    EXPECT_EQ(g.partner_count(1002), 1u);
    EXPECT_EQ(g.partner_count(1003), 1u);
    EXPECT_EQ(g.partner_count(1000), 0u);
}

TEST(PrecedenceGraph, NoGatingWhenDisabled) {
    PrecedenceGraph g(false);
    const workload::Job a = chain(1, {10, 20});
    const workload::Job b = chain(2, {10, 20});
    g.add_job(a);
    g.add_job(b);
    EXPECT_EQ(g.stats().edges_admitted, 0u);
    EXPECT_EQ(g.stats().alignments_run, 0u);
    const auto promoted = g.on_query_visible(1000);
    ASSERT_EQ(promoted.size(), 1u);  // no gate, promotes alone
}

TEST(PrecedenceGraph, NoEdgesToCompletedQueries) {
    PrecedenceGraph g(true);
    const workload::Job a = chain(1, {10, 20, 30});
    g.add_job(a);
    g.on_query_visible(1000);
    g.on_query_done(1000);  // a's first query already finished
    const workload::Job b = chain(2, {10, 20, 30});
    g.add_job(b);
    // b's head cannot gate with a's pruned head; only 20/30 align.
    EXPECT_EQ(g.partner_count(2000), 0u);
    EXPECT_EQ(g.partner_count(2001), 1u);
    EXPECT_EQ(g.partner_count(2002), 1u);
}

TEST(PrecedenceGraph, TransitiveInheritanceBuildsGroups) {
    PrecedenceGraph g(true);
    const workload::Job a = chain(1, {10, 20});
    const workload::Job b = chain(2, {10, 20});
    const workload::Job c = chain(3, {10, 20});
    g.add_job(a);
    g.add_job(b);
    g.add_job(c);
    // Job 3's head inherits job 2's edge to job 1: a triangle.
    EXPECT_EQ(g.partner_count(3000), 2u);
    EXPECT_EQ(g.partner_count(1000), 2u);
    EXPECT_EQ(g.partner_count(2000), 2u);
    // The whole group promotes only when all three are visible.
    EXPECT_TRUE(g.on_query_visible(1000).empty());
    EXPECT_TRUE(g.on_query_visible(2000).empty());
    EXPECT_EQ(g.on_query_visible(3000).size(), 3u);
    EXPECT_TRUE(g.check_invariants());
}

TEST(PrecedenceGraph, OneEdgePerQueryPerJobPair) {
    PrecedenceGraph g(true);
    // Both queries of job 2 share data with job 1's single query region.
    const workload::Job a = chain(1, {10, 10});
    const workload::Job b = chain(2, {10, 10});
    g.add_job(a);
    g.add_job(b);
    // Each query has at most one edge to the other job.
    EXPECT_LE(g.partner_count(2000), 2u);
    EXPECT_TRUE(g.check_invariants());
}

TEST(PrecedenceGraph, ForcePromoteReleasesOldestReady) {
    PrecedenceGraph g(true);
    const workload::Job a = chain(1, {10, 20});
    const workload::Job b = chain(2, {10, 20});
    g.add_job(a);
    g.add_job(b);
    g.on_query_visible(1000);  // READY, gated forever if job 2 never starts
    ASSERT_TRUE(g.has_ready());
    const auto released = g.force_promote_oldest_ready();
    ASSERT_EQ(released.size(), 1u);
    EXPECT_EQ(released[0], 1000u);
    EXPECT_EQ(g.state(1000), QueryState::kQueue);
    EXPECT_EQ(g.stats().forced_promotions, 1u);
}

TEST(PrecedenceGraph, ForcePromoteNoReadyReturnsEmpty) {
    PrecedenceGraph g(true);
    const workload::Job a = chain(1, {10});
    g.add_job(a);
    EXPECT_TRUE(g.force_promote_oldest_ready().empty());
}

TEST(PrecedenceGraph, GatingNumbersCountEdgedPrefix) {
    PrecedenceGraph g(true);
    const workload::Job a = chain(1, {10, 99, 20, 30});
    const workload::Job b = chain(2, {10, 20, 30});
    g.add_job(a);
    g.add_job(b);
    // a: edges at seq 0 (R10), 2 (R20), 3 (R30); seq 1 (R99) unshared.
    EXPECT_EQ(g.gating_number(1000), 1);
    EXPECT_EQ(g.gating_number(1001), 1);
    EXPECT_EQ(g.gating_number(1002), 2);
    EXPECT_EQ(g.gating_number(1003), 3);
}

TEST(PrecedenceGraph, RejectsDeadlockCycleAcrossThreeJobs) {
    // Construct the rock-paper-scissors hazard: j1=[A,B], j2=[B,C], j3=[C,A].
    // Pairwise alignments: j1.B~j2.B, j2.C~j3.C, j3.A~j1.A. Admitting all
    // three would create the wait cycle j1.A<j1.B~j2.B<j2.C~j3.C... admission
    // must reject at least the closing edge; the graph must stay acyclic.
    PrecedenceGraph g(true);
    const workload::Job j1 = chain(1, {100, 200});
    const workload::Job j2 = chain(2, {200, 300});
    const workload::Job j3 = chain(3, {300, 100});
    g.add_job(j1);
    g.add_job(j2);
    g.add_job(j3);
    EXPECT_TRUE(g.check_invariants());
    // Drive everything to completion to prove no deadlock at runtime.
    std::vector<workload::QueryId> queue;
    const auto visible = [&](workload::QueryId id) {
        for (const auto q : g.on_query_visible(id)) queue.push_back(q);
    };
    visible(1000);
    visible(2000);
    visible(3000);
    std::size_t executed = 0;
    std::size_t guard = 0;
    while (executed < 6 && guard++ < 100) {
        if (queue.empty()) {
            const auto released = g.force_promote_oldest_ready();
            ASSERT_FALSE(released.empty()) << "graph stalled";
            for (const auto q : released) queue.push_back(q);
        }
        const workload::QueryId id = queue.back();
        queue.pop_back();
        g.on_query_done(id);
        ++executed;
        // Successor becomes visible.
        const workload::QueryId succ = id + 1;
        if (succ % 1000 == 1) visible(succ);
    }
    EXPECT_EQ(executed, 6u);
    // The admission rules should have prevented the cycle outright, so no
    // forced promotions were necessary.
    EXPECT_EQ(g.stats().forced_promotions, 0u);
}

TEST(PrecedenceGraph, RandomCampaignDrainsWithoutForcedPromotions) {
    // Property test: many random overlapping chains must always drain through
    // the normal promotion path (gating never deadlocks the schedule).
    util::Rng rng(1234);
    for (int trial = 0; trial < 10; ++trial) {
        PrecedenceGraph g(true);
        std::vector<workload::Job> jobs;
        const std::size_t n = 4 + rng.uniform_u64(4);
        for (std::size_t j = 0; j < n; ++j) {
            std::vector<std::uint64_t> regions;
            const std::size_t m = 2 + rng.uniform_u64(5);
            for (std::size_t i = 0; i < m; ++i) regions.push_back(rng.uniform_u64(6));
            workload::Job job;
            job.id = j + 1;
            job.type = workload::JobType::kOrdered;
            for (std::size_t i = 0; i < regions.size(); ++i)
                job.queries.push_back(query_on(job.id, static_cast<std::uint32_t>(i), 0,
                                               {regions[i]}));
            jobs.push_back(job);
        }
        for (const auto& job : jobs) g.add_job(job);
        ASSERT_TRUE(g.check_invariants());

        std::vector<workload::QueryId> runnable;
        for (const auto& job : jobs)
            for (const auto id : g.on_query_visible(job.queries.front().id))
                runnable.push_back(id);
        std::size_t total = 0;
        for (const auto& job : jobs) total += job.queries.size();
        std::size_t executed = 0;
        std::size_t guard = 0;
        while (executed < total && guard++ < 1000) {
            ASSERT_FALSE(runnable.empty()) << "stall in trial " << trial;
            const workload::QueryId id = runnable.back();
            runnable.pop_back();
            g.on_query_done(id);
            ++executed;
            const workload::JobId job_id = id / 1000;
            const std::uint32_t seq = static_cast<std::uint32_t>(id % 1000);
            if (seq + 1 < jobs[job_id - 1].queries.size())
                for (const auto next : g.on_query_visible(id + 1)) runnable.push_back(next);
        }
        ASSERT_EQ(executed, total);
        ASSERT_EQ(g.stats().forced_promotions, 0u);
    }
}

TEST(PrecedenceGraph, PruneSplitLetsALaterJobGateAcrossThePieces) {
    // Query x (job 7) joins two groups that share no edge: {r2, c} with c
    // gated to b3, and {r1, d} with d gated to w1. Inheritance is one level
    // deep, so x never partners b3 or w1 and can run while they wait.
    PrecedenceGraph g(true);
    const workload::Job b = footprints(1, {{90}, {1}, {91}, {2}});  // b0 b1 b2 b3
    const workload::Job r2 = footprints(2, {{3, 7}, {92}});
    const workload::Job c = footprints(3, {{2, 3}, {93}});          // c ~ b3, c ~ r2
    const workload::Job r1 = footprints(4, {{4, 8}, {94}});
    const workload::Job w = footprints(5, {{95}, {5}});             // w0 w1
    const workload::Job d = footprints(6, {{4, 5, 6}, {96}});       // d ~ r1, d ~ w1
    const workload::Job x = footprints(7, {{7, 8}, {97}});          // x ~ r2, x ~ r1
    for (const workload::Job* job : {&b, &r2, &c, &r1, &w, &d, &x}) g.add_job(*job);
    ASSERT_EQ(g.partner_count(7000), 4u);  // r2, c, r1, d
    for (const workload::QueryId id : {1000, 2000, 3000, 4000, 5000, 6000, 7000})
        g.on_query_visible(id);
    ASSERT_EQ(g.state(7000), QueryState::kQueue);
    ASSERT_EQ(g.state(3000), QueryState::kReady);  // c waits for b3
    ASSERT_EQ(g.state(6000), QueryState::kReady);  // d waits for w1

    // Pruning x splits its component into {r2, c, b3} and {r1, d, w1}.
    g.on_query_done(7000);
    EXPECT_TRUE(g.check_invariants());

    // n1 gates with b1, then with d (inheriting w1): the merged set reaches
    // b3 through b2, but b3's piece does not lead back, so the edge is
    // admitted. A union-find kept from before the prune still holds both
    // pieces in one component and would see b1 -> b2 -> b3 close a cycle.
    const workload::Job n = footprints(8, {{1, 6}, {98}});
    g.add_job(n);
    EXPECT_EQ(g.partner_count(8000), 3u);  // b1, d, w1
    EXPECT_EQ(g.stats().edges_admitted, 11u);
    EXPECT_EQ(g.stats().edges_rejected_deadlock, 0u);
    EXPECT_TRUE(g.check_invariants());
}

namespace {
std::size_t g_violations = 0;

/// Counts contract violations instead of aborting while it lives, and
/// restores the previous handler on every exit path.
class CountViolations {
  public:
    CountViolations()
        : previous_(util::set_contract_handler(
              [](const char*, int, const char*, const char*) { ++g_violations; })) {
        g_violations = 0;
    }
    ~CountViolations() { util::set_contract_handler(previous_); }

  private:
    util::ContractHandler previous_;
};
}  // namespace

TEST(PrecedenceGraph, PruneCanLeaveACycleThatRefusesEveryEdgeUntilItDissolves) {
    // x (job 4) bridges {a1, c1, b2} and {d1, a2, b1}; once x is pruned, the
    // chains a1 -> a2 and b1 -> b2 run both ways between the pieces. Both
    // sources a1 and b1 are already running, so nothing can stall, but the
    // contracted graph has a cycle: the audit reports it and the exact check
    // refuses every candidate edge, even between unrelated jobs.
    const CountViolations counting;
    PrecedenceGraph g(true);
    const workload::Job a = footprints(1, {{1, 5}, {2}});
    const workload::Job b = footprints(2, {{3, 6}, {4}});
    const workload::Job c = footprints(3, {{1, 4}, {100}});  // c1 ~ a1, c1 ~ b2
    const workload::Job x = footprints(4, {{5, 3}, {101}});  // x ~ a1 (+ c1), x ~ b1
    const workload::Job d = footprints(5, {{2, 6}, {102}});  // d1 ~ a2, d1 ~ b1 (+ x)
    for (const workload::Job* job : {&a, &b, &c, &x, &d}) g.add_job(*job);
    EXPECT_EQ(g.stats().edges_admitted, 8u);
    for (const workload::QueryId id : {1000, 2000, 3000, 4000, 5000}) g.on_query_visible(id);
    ASSERT_EQ(g.state(4000), QueryState::kQueue);
    ASSERT_EQ(g.state(1000), QueryState::kQueue);
    ASSERT_EQ(g.state(2000), QueryState::kQueue);
    g.on_query_done(4000);
    EXPECT_FALSE(g.audit());

    const workload::Job e = footprints(6, {{200}, {201}});
    const workload::Job f = footprints(7, {{200}, {201}});
    g.add_job(e);
    g.add_job(f);
    EXPECT_EQ(g.stats().edges_admitted, 8u);
    EXPECT_EQ(g.stats().edges_rejected_deadlock, 2u);
    EXPECT_EQ(g.partner_count(7000), 0u);

    // a1 finishes: the chain edge a1 -> a2 goes, and so does the cycle.
    g.on_query_done(1000);
    EXPECT_TRUE(g.check_invariants());
    const workload::Job h = footprints(8, {{200}, {201}});
    g.add_job(h);
    EXPECT_EQ(g.partner_count(8000), 2u);  // e's and f's heads
    EXPECT_EQ(g.stats().edges_rejected_deadlock, 2u);
    EXPECT_TRUE(g.check_invariants());
    EXPECT_GT(g_violations, 0u);  // the audit reported the cycle
}

}  // namespace
}  // namespace jaws::sched
