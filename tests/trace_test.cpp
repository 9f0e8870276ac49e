// Tests for trace flattening and CSV round-trip (workload/trace.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "workload/generator.h"
#include "workload/trace.h"

namespace jaws::workload {
namespace {

Workload small_workload() {
    WorkloadSpec spec;
    spec.jobs = 40;
    spec.seed = 77;
    const field::GridSpec grid;
    const field::SyntheticField field(field::FieldSpec{.modes = 6});
    return generate_workload(spec, grid, field);
}

TEST(Trace, FlattenCountMatches) {
    const Workload w = small_workload();
    const auto records = flatten(w);
    EXPECT_EQ(records.size(), w.total_queries());
}

TEST(Trace, FlattenSortedBySubmitTime) {
    const auto records = flatten(small_workload());
    EXPECT_TRUE(std::is_sorted(records.begin(), records.end(),
                               [](const TraceRecord& a, const TraceRecord& b) {
                                   return a.submit < b.submit;
                               }));
}

TEST(Trace, OrderedJobsSubmitSequentially) {
    const Workload w = small_workload();
    const auto records = flatten(w);
    // Within a job, submission times must ascend with sequence number.
    std::unordered_map<JobId, util::SimTime> last;
    std::unordered_map<JobId, std::uint32_t> last_seq;
    for (const auto& r : records) {
        if (r.job_type != JobType::kOrdered) continue;
        const auto it = last.find(r.true_job);
        if (it != last.end()) {
            ASSERT_GE(r.submit.raw_micros(), it->second.raw_micros());
            ASSERT_EQ(r.seq_in_job, last_seq[r.true_job] + 1);
        }
        last[r.true_job] = r.submit;
        last_seq[r.true_job] = r.seq_in_job;
    }
}

TEST(Trace, RecordsCarryFootprintSummary) {
    const Workload w = small_workload();
    const auto records = flatten(w);
    std::unordered_map<QueryId, const Query*> queries;
    for (const auto& job : w.jobs)
        for (const auto& q : job.queries) queries[q.id] = &q;
    for (const auto& r : records) {
        const Query* q = queries.at(r.query);
        ASSERT_EQ(r.positions, q->total_positions());
        ASSERT_EQ(r.atoms, q->footprint.size());
        ASSERT_EQ(r.timestep, q->timestep);
        ASSERT_EQ(r.user, q->user);
    }
}

TEST(Trace, CsvRoundTrip) {
    const auto records = flatten(small_workload());
    const std::string path = ::testing::TempDir() + "/jaws_trace_test.csv";
    save_csv(path, records);
    const auto loaded = load_csv(path);
    ASSERT_EQ(loaded.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        ASSERT_EQ(loaded[i].query, records[i].query);
        ASSERT_EQ(loaded[i].true_job, records[i].true_job);
        ASSERT_EQ(loaded[i].seq_in_job, records[i].seq_in_job);
        ASSERT_EQ(loaded[i].user, records[i].user);
        ASSERT_EQ(loaded[i].job_type, records[i].job_type);
        ASSERT_EQ(loaded[i].timestep, records[i].timestep);
        ASSERT_EQ(loaded[i].kind, records[i].kind);
        ASSERT_EQ(loaded[i].positions, records[i].positions);
        ASSERT_EQ(loaded[i].atoms, records[i].atoms);
        ASSERT_EQ(loaded[i].submit, records[i].submit);
    }
    std::remove(path.c_str());
}

TEST(Trace, LoadMissingFileThrows) {
    EXPECT_THROW(load_csv("/nonexistent/path/trace.csv"), std::runtime_error);
}

TEST(Trace, LoadMalformedThrows) {
    const std::string path = ::testing::TempDir() + "/jaws_trace_bad.csv";
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fprintf(f, "header\nnot,a,valid,row\n");
    std::fclose(f);
    EXPECT_THROW(load_csv(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(Trace, EmptyWorkloadFlattensEmpty) {
    EXPECT_TRUE(flatten(Workload{}).empty());
}

// --------------------------------------------------------------------------
// Fuzz-pinned parser regressions (fuzz/fuzz_trace.cpp). Each literal below
// mirrors a corpus file under fuzz/corpus/fuzz_trace/, replayed as the
// FuzzReplay.fuzz_trace ctest in every build.
// --------------------------------------------------------------------------

constexpr const char* kHeader =
    "query,job,seq,user,job_type,timestep,kind,positions,atoms,submit_us\n";

TEST(Trace, ParseCsvAcceptsAValidRow) {
    const auto records = parse_csv(
        std::string(kHeader) + "7,3,2,1,1,40,2,1200,9,500000\n");
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].query, 7u);
    EXPECT_EQ(records[0].job_type, JobType::kBatched);
    EXPECT_EQ(records[0].kind, storage::ComputeKind::kFlowStats);
    EXPECT_EQ(records[0].submit.raw_micros(), 500'000);
}

TEST(Trace, ParseCsvRejectsOverflowingField) {
    // regression-overflow.csv: a seq column wider than any integer type.
    // The old scanf-based parser silently wrapped (UB for the unsigned
    // conversions); the from_chars parser must reject the row.
    EXPECT_THROW(
        parse_csv(std::string(kHeader) +
                  "1,1,99999999999999999999999,0,0,1,0,10,1,0\n"),
        std::runtime_error);
}

TEST(Trace, ParseCsvRejectsOutOfRangeEnums) {
    // regression-bad-enum.csv: numeric but undeclared enumerators must not
    // materialise as TraceRecord fields.
    EXPECT_THROW(parse_csv(std::string(kHeader) + "1,1,0,0,7,1,0,10,1,0\n"),
                 std::runtime_error);  // job_type 7
    EXPECT_THROW(parse_csv(std::string(kHeader) + "1,1,0,0,0,1,9,10,1,0\n"),
                 std::runtime_error);  // kind 9
}

TEST(Trace, ParseCsvRejectsTruncatedAndOverlongRows) {
    // regression-truncated-row.csv: nine fields, or eleven, is not a record.
    EXPECT_THROW(parse_csv(std::string(kHeader) + "1,1,0,0,0,1,0,10,1\n"),
                 std::runtime_error);
    EXPECT_THROW(parse_csv(std::string(kHeader) + "1,1,0,0,0,1,0,10,1,0,5\n"),
                 std::runtime_error);
}

TEST(Trace, ParseCsvAcceptsCrlfAndMissingTrailingNewline) {
    const auto crlf = parse_csv(std::string(kHeader) +
                                "1,1,0,0,0,1,0,10,1,0\r\n"
                                "2,1,1,0,0,1,0,10,1,5");
    ASSERT_EQ(crlf.size(), 2u);
    EXPECT_EQ(crlf[1].query, 2u);
}

TEST(Trace, ToCsvRoundTripsInMemory) {
    // The filesystem-free counterpart of CsvRoundTrip, and the oracle the
    // fuzzer uses: parse_csv(to_csv(r)) == r, field for field.
    const auto records = flatten(small_workload());
    const auto reparsed = parse_csv(to_csv(records));
    ASSERT_EQ(reparsed.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        ASSERT_EQ(reparsed[i].query, records[i].query);
        ASSERT_EQ(reparsed[i].true_job, records[i].true_job);
        ASSERT_EQ(reparsed[i].seq_in_job, records[i].seq_in_job);
        ASSERT_EQ(reparsed[i].user, records[i].user);
        ASSERT_EQ(reparsed[i].job_type, records[i].job_type);
        ASSERT_EQ(reparsed[i].timestep, records[i].timestep);
        ASSERT_EQ(reparsed[i].kind, records[i].kind);
        ASSERT_EQ(reparsed[i].positions, records[i].positions);
        ASSERT_EQ(reparsed[i].atoms, records[i].atoms);
        ASSERT_EQ(reparsed[i].submit, records[i].submit);
    }
}

}  // namespace
}  // namespace jaws::workload
