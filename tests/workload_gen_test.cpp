// Tests for the calibrated workload generator (workload/generator.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/morton.h"
#include "workload/generator.h"

namespace jaws::workload {
namespace {

struct Fixture {
    Fixture() : field(field::FieldSpec{.modes = 8}), grid(field::GridSpec{}) {
        WorkloadSpec spec;
        spec.jobs = 400;
        spec.seed = 123;
        workload = generate_workload(spec, grid, field);
    }

    field::SyntheticField field;
    field::GridSpec grid;
    Workload workload;
};

Fixture& fixture() {
    static Fixture f;
    return f;
}

TEST(Generator, ProducesRequestedJobCount) {
    EXPECT_EQ(fixture().workload.jobs.size(), 400u);
}

TEST(Generator, DeterministicInSeed) {
    WorkloadSpec spec;
    spec.jobs = 50;
    spec.seed = 9;
    const Workload a = generate_workload(spec, fixture().grid, fixture().field);
    const Workload b = generate_workload(spec, fixture().grid, fixture().field);
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
        ASSERT_EQ(a.jobs[i].queries.size(), b.jobs[i].queries.size());
        ASSERT_EQ(a.jobs[i].arrival, b.jobs[i].arrival);
        for (std::size_t j = 0; j < a.jobs[i].queries.size(); ++j) {
            ASSERT_EQ(a.jobs[i].queries[j].footprint.size(),
                      b.jobs[i].queries[j].footprint.size());
            ASSERT_EQ(a.jobs[i].queries[j].total_positions(),
                      b.jobs[i].queries[j].total_positions());
        }
    }
}

TEST(Generator, DifferentSeedsDiffer) {
    WorkloadSpec spec;
    spec.jobs = 30;
    spec.seed = 1;
    const Workload a = generate_workload(spec, fixture().grid, fixture().field);
    spec.seed = 2;
    const Workload b = generate_workload(spec, fixture().grid, fixture().field);
    EXPECT_NE(a.total_queries(), b.total_queries());
}

TEST(Generator, JobsSortedByArrival) {
    const auto& jobs = fixture().workload.jobs;
    EXPECT_TRUE(std::is_sorted(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
        return a.arrival < b.arrival;
    }));
}

TEST(Generator, QueryIdsGloballyUnique) {
    std::vector<QueryId> ids;
    for (const auto& job : fixture().workload.jobs)
        for (const auto& q : job.queries) ids.push_back(q.id);
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(Generator, SequenceNumbersContiguous) {
    for (const auto& job : fixture().workload.jobs)
        for (std::size_t i = 0; i < job.queries.size(); ++i)
            ASSERT_EQ(job.queries[i].seq_in_job, i);
}

TEST(Generator, FootprintsMortonSorted) {
    for (const auto& job : fixture().workload.jobs) {
        for (const auto& q : job.queries) {
            ASSERT_FALSE(q.footprint.empty());
            ASSERT_TRUE(std::is_sorted(q.footprint.begin(), q.footprint.end(),
                                       [](const AtomRequest& a, const AtomRequest& b) {
                                           return a.atom.morton < b.atom.morton;
                                       }));
        }
    }
}

TEST(Generator, FootprintAtomsWithinDataset) {
    const auto& grid = fixture().grid;
    const std::uint64_t aps = grid.atoms_per_side();
    for (const auto& job : fixture().workload.jobs) {
        for (const auto& q : job.queries) {
            ASSERT_LT(q.timestep, grid.timesteps);
            for (const auto& req : q.footprint) {
                ASSERT_EQ(req.atom.timestep, q.timestep);
                const util::Coord3 c = util::morton_decode(req.atom.morton);
                ASSERT_LT(c.x, aps);
                ASSERT_LT(c.y, aps);
                ASSERT_LT(c.z, aps);
                ASSERT_GT(req.positions, 0u);
            }
        }
    }
}

TEST(Generator, PositionCountsWithinBounds) {
    const WorkloadSpec spec;
    for (const auto& job : fixture().workload.jobs)
        for (const auto& q : job.queries) {
            ASSERT_GE(q.total_positions(), spec.min_positions);
            ASSERT_LE(q.total_positions(), spec.max_positions);
        }
}

TEST(Generator, RejectsSpecsItCannotHonour) {
    const auto expect_rejected = [](const WorkloadSpec& spec,
                                    std::initializer_list<const char*> fields) {
        try {
            generate_workload(spec, fixture().grid, fixture().field);
            ADD_FAILURE() << "accepted a spec with a bad " << *fields.begin();
        } catch (const std::invalid_argument& e) {
            const std::string what = e.what();
            for (const char* field : fields)
                EXPECT_NE(what.find(field), std::string::npos) << what;
        }
    };
    WorkloadSpec spec;
    spec.jobs = 5;
    WorkloadSpec inverted = spec;
    inverted.min_positions = 500;
    inverted.max_positions = 100;
    expect_rejected(inverted, {"min_positions", "max_positions"});
    WorkloadSpec no_users = spec;
    no_users.users = 0;
    expect_rejected(no_users, {"users"});
    WorkloadSpec no_hotspots = spec;
    no_hotspots.hotspots = 0;
    expect_rejected(no_hotspots, {"hotspot_prob", "hotspots"});

    no_hotspots.hotspot_prob = 0.0;  // no hotspot is ever drawn
    EXPECT_EQ(generate_workload(no_hotspots, fixture().grid, fixture().field).jobs.size(), 5u);
    WorkloadSpec pinned = spec;
    pinned.min_positions = pinned.max_positions = 500;  // equal bounds pin every count
    for (const auto& job : generate_workload(pinned, fixture().grid, fixture().field).jobs)
        for (const auto& q : job.queries) ASSERT_EQ(q.total_positions(), 500u);
}

TEST(Generator, RejectsJobCountsAboveTheBound) {
    // validate() runs before generate_workload allocates, so the oversized
    // counts below are rejected without building anything.
    WorkloadSpec spec;
    spec.jobs = WorkloadSpec::kMaxJobs;
    EXPECT_NO_THROW(spec.validate());
    for (const std::size_t jobs :
         {WorkloadSpec::kMaxJobs + 1, std::numeric_limits<std::size_t>::max()}) {
        spec.jobs = jobs;
        try {
            generate_workload(spec, fixture().grid, fixture().field);
            ADD_FAILURE() << "accepted " << jobs << " jobs";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("jobs"), std::string::npos) << e.what();
        }
    }
}

TEST(Generator, OrderedJobsAdjacentStepsDifferByAtMostOne) {
    for (const auto& job : fixture().workload.jobs) {
        if (job.type != JobType::kOrdered) continue;
        for (std::size_t i = 1; i < job.queries.size(); ++i) {
            const auto delta = static_cast<std::int64_t>(job.queries[i].timestep) -
                               static_cast<std::int64_t>(job.queries[i - 1].timestep);
            ASSERT_LE(std::llabs(delta), 1);
        }
    }
}

TEST(Generator, BatchedJobsStayOnOneStep) {
    for (const auto& job : fixture().workload.jobs) {
        if (job.type != JobType::kBatched) continue;
        for (const auto& q : job.queries)
            ASSERT_EQ(q.timestep, job.queries.front().timestep);
    }
}

TEST(Generator, SingleStepFractionNearPaper) {
    std::size_t single = 0;
    for (const auto& job : fixture().workload.jobs)
        if (job.timestep_span() <= 1) ++single;
    const double frac =
        static_cast<double>(single) / static_cast<double>(fixture().workload.jobs.size());
    EXPECT_NEAR(frac, 0.88, 0.08);  // paper Sec. VI-A
}

TEST(Generator, MostQueriesBelongToJobs) {
    std::size_t in_jobs = 0, total = 0;
    for (const auto& job : fixture().workload.jobs) {
        total += job.queries.size();
        if (job.queries.size() > 1) in_jobs += job.queries.size();
    }
    EXPECT_GT(static_cast<double>(in_jobs) / static_cast<double>(total), 0.95);
}

TEST(Generator, HotStepsCarryMostQueries) {
    const auto counts = queries_per_timestep(fixture().workload, fixture().grid.timesteps);
    std::vector<std::uint64_t> sorted(counts.begin(), counts.end());
    std::sort(sorted.rbegin(), sorted.rend());
    const std::uint64_t total = std::accumulate(sorted.begin(), sorted.end(), 0ULL);
    std::uint64_t top12 = 0;
    for (std::size_t i = 0; i < 12 && i < sorted.size(); ++i) top12 += sorted[i];
    EXPECT_GT(static_cast<double>(top12) / static_cast<double>(total), 0.55);
}

TEST(Generator, EndsHotterThanMiddle) {
    const auto counts = queries_per_timestep(fixture().workload, fixture().grid.timesteps);
    const std::size_t n = counts.size();
    const std::uint64_t ends = counts[0] + counts[1] + counts[n - 2] + counts[n - 1];
    const std::uint64_t middle =
        counts[n / 2 - 2] + counts[n / 2 - 1] + counts[n / 2] + counts[n / 2 + 1];
    EXPECT_GT(ends, middle);
}

TEST(Generator, ThinkTimesNonNegativeAndFirstZeroForOrdered) {
    for (const auto& job : fixture().workload.jobs) {
        if (job.type != JobType::kOrdered) continue;
        ASSERT_EQ(job.queries.front().think_time, util::SimTime::zero());
        for (const auto& q : job.queries) ASSERT_GE(q.think_time.micros, 0);
    }
}

TEST(ApplySpeedup, CompressesGapsExactly) {
    Workload w;
    for (int i = 0; i < 3; ++i) {
        Job job;
        job.id = static_cast<JobId>(i + 1);
        job.arrival = util::SimTime::from_seconds(120.0 * i);
        w.jobs.push_back(job);
    }
    apply_speedup(w, 2.0);
    EXPECT_EQ(w.jobs[0].arrival.micros, 0);
    EXPECT_EQ(w.jobs[1].arrival.micros, 60'000'000);
    EXPECT_EQ(w.jobs[2].arrival.micros, 120'000'000);
}

TEST(ApplySpeedup, SlowdownStretchesGaps) {
    Workload w;
    Job a, b;
    a.arrival = util::SimTime::from_seconds(10);
    b.arrival = util::SimTime::from_seconds(20);
    w.jobs = {a, b};
    apply_speedup(w, 0.5);
    EXPECT_EQ((w.jobs[1].arrival - w.jobs[0].arrival).micros, 20'000'000);
}

TEST(ApplySpeedup, IdentityAtOne) {
    WorkloadSpec spec;
    spec.jobs = 20;
    Workload w = generate_workload(spec, fixture().grid, fixture().field);
    const Workload copy = w;
    apply_speedup(w, 1.0);
    for (std::size_t i = 0; i < w.jobs.size(); ++i)
        ASSERT_EQ(w.jobs[i].arrival, copy.jobs[i].arrival);
}

TEST(QueriesPerTimestep, SumsToTotal) {
    const auto counts = queries_per_timestep(fixture().workload, fixture().grid.timesteps);
    const std::uint64_t total = std::accumulate(counts.begin(), counts.end(), 0ULL);
    EXPECT_EQ(total, fixture().workload.total_queries());
}

TEST(Job, TimestepSpan) {
    Job job;
    EXPECT_EQ(job.timestep_span(), 0u);
    Query q1, q2;
    q1.timestep = 3;
    q2.timestep = 7;
    job.queries = {q1, q2};
    EXPECT_EQ(job.timestep_span(), 5u);
}

TEST(Job, TotalPositions) {
    Job job;
    Query q;
    q.footprint = {AtomRequest{{0, 0}, 10}, AtomRequest{{0, 1}, 20}};
    job.queries = {q, q};
    EXPECT_EQ(job.total_positions(), 60u);
}

}  // namespace
}  // namespace jaws::workload
