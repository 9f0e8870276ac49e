// Tests for the three scheduler policies in isolation (sched/*.h).
#include <gtest/gtest.h>

#include "sched/jaws.h"
#include "sched/liferaft.h"
#include "sched/noshare.h"
#include "util/morton.h"

namespace jaws::sched {
namespace {

workload::Query query_on(workload::QueryId id, std::uint32_t step,
                         std::initializer_list<std::uint64_t> mortons,
                         std::uint64_t positions = 100) {
    workload::Query q;
    q.id = id;
    q.timestep = step;
    for (const std::uint64_t m : mortons)
        q.footprint.push_back(workload::AtomRequest{{step, m}, positions});
    std::sort(q.footprint.begin(), q.footprint.end(),
              [](const workload::AtomRequest& a, const workload::AtomRequest& b) {
                  return a.atom.morton < b.atom.morton;
              });
    return q;
}

TEST(NoShare, FifoOneQueryPerBatch) {
    NoShareScheduler s;
    const auto q1 = query_on(1, 0, {5, 9});
    const auto q2 = query_on(2, 0, {5});
    s.on_query_visible(q1, util::SimTime::zero());
    s.on_query_visible(q2, util::SimTime::from_millis(1));
    ASSERT_TRUE(s.has_pending());

    EXPECT_EQ(s.pending_count(), 3u);

    Batch batch;
    s.next_batch(util::SimTime::from_millis(2), batch);
    ASSERT_EQ(batch.items.size(), 2u);  // q1's two atoms
    for (const BatchItem& item : batch.items) {
        ASSERT_EQ(batch.subqueries_of(item).size(), 1u);
        EXPECT_EQ(batch.subqueries_of(item)[0].query, 1u);
        EXPECT_EQ(batch.subqueries_of(item)[0].enqueue_time, util::SimTime::zero());
    }
    EXPECT_EQ(s.pending_count(), 1u);
    s.next_batch(util::SimTime::from_millis(3), batch);
    ASSERT_EQ(batch.items.size(), 1u);
    EXPECT_EQ(batch.subqueries_of(batch.items[0])[0].query, 2u);
    // Split at dispatch, but stamped with the instant the query became visible.
    EXPECT_EQ(batch.subqueries_of(batch.items[0])[0].enqueue_time, util::SimTime::from_millis(1));
    EXPECT_FALSE(s.has_pending());
    EXPECT_EQ(s.pending_count(), 0u);
    s.next_batch(util::SimTime::zero(), batch);
    EXPECT_TRUE(batch.empty());
}

TEST(NoShare, NeverMergesQueries) {
    // NoShare keeps references to the visible queries until it dispatches
    // them, so the queries must outlive the scheduler's use of them.
    NoShareScheduler s;
    const auto q1 = query_on(1, 0, {5});
    const auto q2 = query_on(2, 0, {5});
    s.on_query_visible(q1, util::SimTime::zero());
    s.on_query_visible(q2, util::SimTime::zero());
    Batch b1;
    s.next_batch(util::SimTime::zero(), b1);
    ASSERT_EQ(b1.items.size(), 1u);
    EXPECT_EQ(b1.subqueries_of(b1.items[0]).size(), 1u);  // only query 1's sub-query
}

TEST(LifeRaft, DrainsMostContendedAtom) {
    LifeRaftScheduler s(CostConstants{}, nullptr, 0.0);
    s.on_query_visible(query_on(1, 0, {5}, 100), util::SimTime::zero());
    s.on_query_visible(query_on(2, 0, {9}, 5000), util::SimTime::zero());
    s.on_query_visible(query_on(3, 0, {9}, 5000), util::SimTime::zero());
    Batch batch;
    s.next_batch(util::SimTime::zero(), batch);
    ASSERT_EQ(batch.items.size(), 1u);  // single-atom scheduling
    EXPECT_EQ(batch.items[0].atom.morton, 9u);
    EXPECT_EQ(batch.subqueries_of(batch.items[0]).size(), 2u);  // both queries co-scheduled
    EXPECT_TRUE(s.has_pending());  // atom 5 still queued
}

TEST(LifeRaft, AlphaOneFollowsArrivalOrder) {
    LifeRaftScheduler s(CostConstants{}, nullptr, 1.0);
    s.on_query_visible(query_on(1, 0, {5}, 10), util::SimTime::from_millis(1));
    s.on_query_visible(query_on(2, 0, {9}, 9000), util::SimTime::from_millis(2));
    Batch batch;
    s.next_batch(util::SimTime::from_millis(3), batch);
    ASSERT_EQ(batch.items.size(), 1u);
    EXPECT_EQ(batch.items[0].atom.morton, 5u);
    EXPECT_DOUBLE_EQ(s.current_alpha(), 1.0);
}

TEST(LifeRaft, NamesIncludeAlpha) {
    LifeRaftScheduler s(CostConstants{}, nullptr, 0.25);
    EXPECT_NE(s.name().find("0.25"), std::string::npos);
}

JawsConfig jaws_config(bool job_aware, std::size_t k = 4) {
    JawsConfig c;
    c.batch_size_k = k;
    c.job_aware = job_aware;
    c.adaptive_alpha = false;
    c.alpha.initial_alpha = 0.0;
    return c;
}

workload::Job two_query_job(workload::JobId id, std::uint64_t region) {
    workload::Job j;
    j.id = id;
    j.type = workload::JobType::kOrdered;
    auto q1 = query_on(id * 100, 0, {region});
    auto q2 = query_on(id * 100 + 1, 0, {region + 1});
    q1.job = j.id;
    q1.seq_in_job = 0;
    q2.job = j.id;
    q2.seq_in_job = 1;
    j.queries = {q1, q2};
    return j;
}

TEST(Jaws, TwoLevelBatchesUpToK) {
    JawsScheduler s(CostConstants{}, nullptr, jaws_config(false, 2));
    workload::Job j;
    j.id = 1;
    j.type = workload::JobType::kBatched;
    for (workload::QueryId i = 0; i < 5; ++i) {
        auto q = query_on(i + 1, 0, {i * 7});
        q.job = 1;
        q.seq_in_job = static_cast<std::uint32_t>(i);
        j.queries.push_back(q);
    }
    s.on_job_submitted(j);
    for (const auto& q : j.queries) s.on_query_visible(q, util::SimTime::zero());
    Batch batch;
    s.next_batch(util::SimTime::zero(), batch);
    EXPECT_EQ(batch.items.size(), 2u);  // capped at k
}

TEST(Jaws, GatingWithholdsUntilPartnersReady) {
    JawsScheduler s(CostConstants{}, nullptr, jaws_config(true));
    const auto a = two_query_job(1, 10);
    const auto b = two_query_job(2, 10);
    s.on_job_submitted(a);
    s.on_job_submitted(b);
    ASSERT_EQ(s.gating_stats()->edges_admitted, 2u);

    s.on_query_visible(a.queries[0], util::SimTime::zero());
    EXPECT_FALSE(s.has_pending());  // gated: partner not yet visible
    s.on_query_visible(b.queries[0], util::SimTime::zero());
    EXPECT_TRUE(s.has_pending());   // both released together
    Batch batch;
    s.next_batch(util::SimTime::zero(), batch);
    ASSERT_FALSE(batch.empty());
    EXPECT_EQ(batch.subqueries_of(batch.items[0]).size(), 2u);  // shared atom, both queries
}

TEST(Jaws, UnstickReleasesGatedWork) {
    JawsScheduler s(CostConstants{}, nullptr, jaws_config(true));
    const auto a = two_query_job(1, 10);
    const auto b = two_query_job(2, 10);
    s.on_job_submitted(a);
    s.on_job_submitted(b);
    s.on_query_visible(a.queries[0], util::SimTime::zero());
    ASSERT_FALSE(s.has_pending());
    EXPECT_TRUE(s.unstick(util::SimTime::zero()));
    EXPECT_TRUE(s.has_pending());
    EXPECT_EQ(s.gating_stats()->forced_promotions, 1u);
}

TEST(Jaws, UnstickWithNothingReadyReturnsFalse) {
    JawsScheduler s(CostConstants{}, nullptr, jaws_config(true));
    EXPECT_FALSE(s.unstick(util::SimTime::zero()));
}

TEST(Jaws, CompletionReleasesSuccessorThroughGraph) {
    JawsScheduler s(CostConstants{}, nullptr, jaws_config(true));
    const auto a = two_query_job(1, 10);
    s.on_job_submitted(a);
    s.on_query_visible(a.queries[0], util::SimTime::zero());
    Batch batch;
    s.next_batch(util::SimTime::zero(), batch);
    ASSERT_FALSE(batch.empty());
    s.on_query_completed(a.queries[0].id, util::SimTime::from_millis(5),
                         util::SimTime::from_millis(5));
    // Successor is WAIT until the engine declares it visible.
    EXPECT_FALSE(s.has_pending());
    s.on_query_visible(a.queries[1], util::SimTime::from_millis(6));
    EXPECT_TRUE(s.has_pending());
}

}  // namespace
}  // namespace jaws::sched
