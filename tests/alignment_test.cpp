// Tests for the Needleman-Wunsch data-sharing alignment (sched/alignment.h).
#include <gtest/gtest.h>

#include <algorithm>

#include "sched/alignment.h"
#include "util/morton.h"
#include "util/rng.h"

namespace jaws::sched {
namespace {

workload::Query query_on(std::uint32_t step, std::initializer_list<std::uint64_t> mortons) {
    workload::Query q;
    q.timestep = step;
    for (const std::uint64_t m : mortons)
        q.footprint.push_back(workload::AtomRequest{{step, m}, 10});
    std::sort(q.footprint.begin(), q.footprint.end(),
              [](const workload::AtomRequest& a, const workload::AtomRequest& b) {
                  return a.atom.morton < b.atom.morton;
              });
    return q;
}

/// Exhaustive (exponential) maximum number of aligned sharing pairs, for
/// certifying align_jobs on small inputs.
std::uint32_t brute(const workload::Job& a, const workload::Job& b, std::size_t i,
                    std::size_t j) {
    if (i == a.queries.size() || j == b.queries.size()) return 0;
    std::uint32_t best = std::max(brute(a, b, i + 1, j), brute(a, b, i, j + 1));
    const std::uint32_t s = queries_share_data(a.queries[i], b.queries[j]) ? 1 : 0;
    return std::max(best, s + brute(a, b, i + 1, j + 1));
}

std::uint32_t max_sharing_alignment_bruteforce(const workload::Job& a,
                                               const workload::Job& b) {
    return brute(a, b, 0, 0);
}

workload::Job job_of(workload::JobId id, std::vector<workload::Query> queries) {
    workload::Job j;
    j.id = id;
    j.type = workload::JobType::kOrdered;
    for (std::size_t i = 0; i < queries.size(); ++i) {
        queries[i].id = id * 1000 + i;
        queries[i].seq_in_job = static_cast<std::uint32_t>(i);
        queries[i].job = id;
    }
    j.queries = std::move(queries);
    return j;
}

TEST(SharePredicate, RequiresSameTimestep) {
    const auto a = query_on(1, {5});
    const auto b = query_on(2, {5});
    EXPECT_FALSE(queries_share_data(a, b));
}

TEST(SharePredicate, DetectsIntersection) {
    const auto a = query_on(1, {3, 5, 9});
    const auto b = query_on(1, {1, 5, 12});
    EXPECT_TRUE(queries_share_data(a, b));
}

TEST(SharePredicate, DisjointFootprints) {
    const auto a = query_on(1, {1, 2, 3});
    const auto b = query_on(1, {4, 5, 6});
    EXPECT_FALSE(queries_share_data(a, b));
}

TEST(AlignJobs, EmptyJobsScoreZero) {
    const auto a = job_of(1, {});
    const auto b = job_of(2, {query_on(0, {1})});
    const Alignment al = align_jobs(a, b);
    EXPECT_EQ(al.score, 0u);
    EXPECT_TRUE(al.pairs.empty());
}

TEST(AlignJobs, IdenticalChainsAlignFully) {
    std::vector<workload::Query> qs;
    for (std::uint64_t i = 0; i < 5; ++i) qs.push_back(query_on(0, {i * 10}));
    const auto a = job_of(1, qs);
    const auto b = job_of(2, qs);
    const Alignment al = align_jobs(a, b);
    EXPECT_EQ(al.score, 5u);
    for (std::uint32_t i = 0; i < 5; ++i) {
        EXPECT_EQ(al.pairs[i].a_seq, i);
        EXPECT_EQ(al.pairs[i].b_seq, i);
    }
}

TEST(AlignJobs, OffsetSubsequenceFound) {
    // Job a visits R1 R2 R3 R4; job b visits R3 R4 R5 — paper Fig. 2 shape.
    const auto a = job_of(1, {query_on(0, {1}), query_on(0, {2}), query_on(0, {3}),
                              query_on(0, {4})});
    const auto b = job_of(2, {query_on(0, {3}), query_on(0, {4}), query_on(0, {5})});
    const Alignment al = align_jobs(a, b);
    EXPECT_EQ(al.score, 2u);
    ASSERT_EQ(al.pairs.size(), 2u);
    EXPECT_EQ(al.pairs[0].a_seq, 2u);  // a's R3
    EXPECT_EQ(al.pairs[0].b_seq, 0u);  // b's R3
    EXPECT_EQ(al.pairs[1].a_seq, 3u);
    EXPECT_EQ(al.pairs[1].b_seq, 1u);
}

TEST(AlignJobs, PairsAreStrictlyMonotone) {
    util::Rng rng(90);
    for (int trial = 0; trial < 30; ++trial) {
        std::vector<workload::Query> qa, qb;
        for (int i = 0; i < 8; ++i) {
            qa.push_back(query_on(0, {rng.uniform_u64(6)}));
            qb.push_back(query_on(0, {rng.uniform_u64(6)}));
        }
        const Alignment al = align_jobs(job_of(1, qa), job_of(2, qb));
        for (std::size_t i = 1; i < al.pairs.size(); ++i) {
            ASSERT_LT(al.pairs[i - 1].a_seq, al.pairs[i].a_seq);
            ASSERT_LT(al.pairs[i - 1].b_seq, al.pairs[i].b_seq);
        }
        // Every aligned pair actually shares data.
        for (const AlignedPair& p : al.pairs)
            ASSERT_TRUE(queries_share_data(qa[p.a_seq], qb[p.b_seq]));
    }
}

class AlignmentOptimality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AlignmentOptimality, MatchesBruteForce) {
    util::Rng rng(GetParam());
    for (int trial = 0; trial < 25; ++trial) {
        std::vector<workload::Query> qa, qb;
        const auto na = 2 + rng.uniform_u64(6);
        const auto nb = 2 + rng.uniform_u64(6);
        for (std::uint64_t i = 0; i < na; ++i)
            qa.push_back(query_on(0, {rng.uniform_u64(5), rng.uniform_u64(5)}));
        for (std::uint64_t i = 0; i < nb; ++i)
            qb.push_back(query_on(0, {rng.uniform_u64(5), rng.uniform_u64(5)}));
        const auto ja = job_of(1, qa);
        const auto jb = job_of(2, qb);
        ASSERT_EQ(align_jobs(ja, jb).score, max_sharing_alignment_bruteforce(ja, jb));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlignmentOptimality, ::testing::Values(11, 22, 33, 44));

TEST(AlignJobs, CrossTimestepChainsAlignPerStep) {
    // Two multi-step jobs over overlapping step ranges: only queries on the
    // same step can share.
    std::vector<workload::Query> qa, qb;
    for (std::uint32_t s = 0; s < 4; ++s) qa.push_back(query_on(s, {7}));
    for (std::uint32_t s = 2; s < 6; ++s) qb.push_back(query_on(s, {7}));
    const Alignment al = align_jobs(job_of(1, qa), job_of(2, qb));
    EXPECT_EQ(al.score, 2u);  // steps 2 and 3
}

}  // namespace
}  // namespace jaws::sched
