// Tests for the debug contract subsystem (util/contracts.h) and the audit()
// methods it reports through. Audits are always compiled — these tests run
// them directly in every build; JAWS_AUDIT_BUILD only adds the automatic
// invocation at state transitions (exercised by the audit CI preset running
// this same suite).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cache/buffer_cache.h"
#include "cache/lru.h"
#include "cache/lru_k.h"
#include "cache/slru.h"
#include "cache/two_q.h"
#include "cache/urc.h"
#include "sched/precedence_graph.h"
#include "sched/workload_manager.h"
#include "util/contracts.h"
#include "util/event_queue.h"

namespace jaws {
namespace {

// The handler is a plain function pointer, so captures go through globals.
std::uint64_t g_captured = 0;
std::string g_last_msg;
std::string g_last_file;
int g_last_line = 0;
std::string g_last_expr;

void capture_handler(const char* file, int line, const char* expr, const char* msg) {
    ++g_captured;
    g_last_msg = msg != nullptr ? msg : "";
    g_last_file = file != nullptr ? file : "";
    g_last_line = line;
    g_last_expr = expr != nullptr ? expr : "";
}

/// Installs a counting handler for the test's scope so reported violations
/// are captured instead of aborting the process.
class HandlerGuard {
  public:
    HandlerGuard() : previous_(util::set_contract_handler(&capture_handler)) {
        g_captured = 0;
        g_last_msg.clear();
        g_last_file.clear();
        g_last_line = 0;
        g_last_expr.clear();
    }
    ~HandlerGuard() { util::set_contract_handler(previous_); }

  private:
    util::ContractHandler previous_;
};

TEST(Contracts, ViolationRoutesThroughInstalledHandlerAndCounts) {
    HandlerGuard guard;
    const std::uint64_t before = util::contract_violations();
    util::contract_violation("f.cpp", 1, "x == y", "test violation");
    EXPECT_EQ(g_captured, 1u);
    EXPECT_EQ(g_last_msg, "test violation");
    EXPECT_EQ(util::contract_violations(), before + 1);
}

TEST(Contracts, SetHandlerReturnsThePreviousOne) {
    const util::ContractHandler def = util::set_contract_handler(&capture_handler);
    EXPECT_EQ(util::set_contract_handler(def), &capture_handler);
}

TEST(Contracts, ContractCheckReportsOnlyWhenFalse) {
    HandlerGuard guard;
    EXPECT_TRUE(util::detail::contract_check(true, "f.cpp", 1, "ok", "unused"));
    EXPECT_EQ(g_captured, 0u);
    EXPECT_FALSE(util::detail::contract_check(false, "f.cpp", 2, "bad", "fired"));
    EXPECT_EQ(g_captured, 1u);
    EXPECT_EQ(g_last_msg, "fired");
}

TEST(Contracts, AuditCheckMacroIsCompiledInEveryBuild) {
    HandlerGuard guard;
    JAWS_AUDIT_CHECK(1 + 1 == 2, "arithmetic holds");
    EXPECT_EQ(g_captured, 0u);
    JAWS_AUDIT_CHECK(1 + 1 == 3, "arithmetic broke");
    EXPECT_EQ(g_captured, 1u);
}

TEST(Contracts, AuditCheckMacroYieldsItsConditionAndReportsTheCallersLine) {
    HandlerGuard guard;
    const int two = 2;
    EXPECT_TRUE(JAWS_AUDIT_CHECK(two + 1 == 3, "arithmetic holds"));
    EXPECT_EQ(g_captured, 0u);
    const int line = __LINE__ + 1;
    const bool held = JAWS_AUDIT_CHECK(two + 2 == 5, "arithmetic broke");
    EXPECT_FALSE(held);
    EXPECT_EQ(g_captured, 1u);
    EXPECT_EQ(g_last_line, line);
    EXPECT_EQ(g_last_expr, "two + 2 == 5");
    EXPECT_EQ(g_last_msg, "arithmetic broke");
    EXPECT_NE(g_last_file.find("contracts_test.cpp"), std::string::npos) << g_last_file;
}

// --------------------------------------------------------------------------
// EventQueue / SimResource audits
// --------------------------------------------------------------------------

util::SimTime us(std::int64_t n) { return util::SimTime::from_micros(n); }

TEST(Contracts, EventQueueAuditsCleanThroughScheduleCancelAndRun) {
    HandlerGuard guard;
    util::EventQueue q;
    EXPECT_TRUE(q.audit());
    std::vector<util::EventQueue::EventId> ids;
    for (int i = 0; i < 200; ++i) ids.push_back(q.schedule(us(1 + i % 17), i % 3, [] {}));
    EXPECT_TRUE(q.audit());
    for (std::size_t i = 0; i < ids.size(); i += 3) EXPECT_TRUE(q.cancel(ids[i]));
    EXPECT_TRUE(q.audit());
    int steps = 0;
    while (q.run_one()) {
        if (++steps % 10 == 0) {
            EXPECT_TRUE(q.audit());
        }
    }
    EXPECT_TRUE(q.audit());
    EXPECT_EQ(g_captured, 0u);
}

TEST(Contracts, EventQueuePendingTracksIdLifecycle) {
    util::EventQueue q;
    const auto id = q.schedule(us(10), 0, [] {});
    EXPECT_TRUE(q.pending(id));
    ASSERT_TRUE(q.run_one());
    EXPECT_FALSE(q.pending(id));
    const auto cancelled = q.schedule(us(20), 0, [] {});
    q.cancel(cancelled);
    EXPECT_FALSE(q.pending(cancelled));
}

TEST(Contracts, SimResourceAuditsCleanMidService) {
    HandlerGuard guard;
    util::EventQueue q;
    util::SimResource disk(q, 2, 0);
    EXPECT_TRUE(disk.audit());
    for (int i = 0; i < 6; ++i) {
        util::SimResource::Job job;
        job.on_start = [](std::size_t) { return us(10); };
        job.on_complete = [](std::size_t) {};
        disk.submit(std::move(job));
        EXPECT_TRUE(disk.audit());
    }
    while (q.run_one()) EXPECT_TRUE(disk.audit());
    EXPECT_TRUE(disk.idle());
    EXPECT_TRUE(disk.audit());
    EXPECT_EQ(g_captured, 0u);
}

// --------------------------------------------------------------------------
// BufferCache audits (every policy)
// --------------------------------------------------------------------------

/// Constant-utility oracle for URC (the policy only needs *an* oracle).
class FlatOracle final : public cache::UtilityOracle {
  public:
    double atom_utility(const storage::AtomId& atom) const override {
        return static_cast<double>(atom.morton % 7);
    }
    double timestep_mean_utility(std::uint32_t) const override { return 3.0; }
};

FlatOracle& flat_oracle() {
    static FlatOracle oracle;
    return oracle;
}

std::vector<std::unique_ptr<cache::ReplacementPolicy>> all_policies() {
    std::vector<std::unique_ptr<cache::ReplacementPolicy>> out;
    out.push_back(std::make_unique<cache::LruPolicy>());
    out.push_back(std::make_unique<cache::LruKPolicy>(2));
    out.push_back(std::make_unique<cache::SlruPolicy>(8));
    out.push_back(std::make_unique<cache::TwoQPolicy>(8));
    out.push_back(std::make_unique<cache::UrcPolicy>(flat_oracle()));
    return out;
}

TEST(Contracts, BufferCacheAuditsCleanAcrossEveryPolicy) {
    HandlerGuard guard;
    for (auto& policy : all_policies()) {
        const std::string name = policy->name();
        SCOPED_TRACE(name);
        cache::BufferCache cache(8, std::move(policy));
        // Mixed churn: admissions past capacity (evictions), re-touches,
        // run boundaries (SLRU promotion points), a stats reset (must not
        // unbalance the conservation ledger), and a full clear.
        for (std::uint64_t i = 0; i < 64; ++i) {
            const storage::AtomId a{static_cast<std::uint32_t>(i % 4), i % 24};
            if (!cache.lookup(a)) cache.insert(a);
            if (i % 16 == 15) cache.run_boundary();
            if (i == 40) cache.reset_stats();
            ASSERT_TRUE(cache.audit());
        }
        cache.clear();
        EXPECT_TRUE(cache.audit());
        EXPECT_EQ(cache.size(), 0u);
    }
    EXPECT_EQ(g_captured, 0u);
}

/// A policy that tracks nothing and whose audit fails without reporting, so
/// a violation can only come from the cache's own check of it.
class FailingAuditPolicy final : public cache::ReplacementPolicy {
  public:
    void on_insert(const storage::AtomId& atom) override { resident_.push_back(atom); }
    void on_access(const storage::AtomId&) override {}
    storage::AtomId pick_victim() override { return resident_.front(); }
    void on_evict(const storage::AtomId& atom) override { std::erase(resident_, atom); }
    bool audit(const std::vector<storage::AtomId>&) const override { return false; }
    std::string name() const override { return "failing-audit"; }

  private:
    std::vector<storage::AtomId> resident_;
};

TEST(Contracts, BufferCacheReportsAFailingPolicyAuditOnceFromItsOwnCheck) {
    HandlerGuard guard;
    cache::BufferCache cache(2, std::make_unique<FailingAuditPolicy>());
    for (std::uint64_t i = 0; i < 5; ++i) cache.insert(storage::AtomId{0, i});
    g_captured = 0;
    EXPECT_FALSE(cache.audit());
    EXPECT_EQ(g_captured, 1u);
    EXPECT_NE(g_last_file.find("buffer_cache.cpp"), std::string::npos) << g_last_file;
    EXPECT_EQ(g_last_expr, "policy_->audit(sorted_residents())");
    EXPECT_EQ(g_last_msg, "BufferCache: replacement-policy state diverged from residency");
}

// --------------------------------------------------------------------------
// PrecedenceGraph / WorkloadManager audits
// --------------------------------------------------------------------------

workload::Job ordered_chain(workload::JobId id, std::initializer_list<std::uint64_t> regions) {
    workload::Job j;
    j.id = id;
    j.type = workload::JobType::kOrdered;
    std::uint32_t seq = 0;
    for (const std::uint64_t r : regions) {
        workload::Query q;
        q.id = id * 1000 + seq;
        q.job = id;
        q.seq_in_job = seq++;
        q.timestep = 0;
        q.footprint.push_back(workload::AtomRequest{{0, r}, 10});
        j.queries.push_back(std::move(q));
    }
    return j;
}

TEST(Contracts, PrecedenceGraphAuditsCleanThroughGatedLifecycle) {
    HandlerGuard guard;
    sched::PrecedenceGraph g(true);
    const workload::Job a = ordered_chain(1, {10, 20, 30});
    const workload::Job b = ordered_chain(2, {10, 20, 30});
    g.add_job(a);
    EXPECT_TRUE(g.audit());
    g.add_job(b);
    EXPECT_TRUE(g.audit());
    for (const auto& job : {a, b}) {
        for (const auto& query : job.queries) {
            g.on_query_visible(query.id);
            EXPECT_TRUE(g.audit());
        }
    }
    for (const auto& job : {a, b}) {
        for (const auto& query : job.queries) {
            g.on_query_done(query.id);
            EXPECT_TRUE(g.audit());
        }
    }
    EXPECT_EQ(g_captured, 0u);
}

sched::SubQuery pending_sub(workload::QueryId q, storage::AtomId a, std::uint64_t positions,
                            double enqueue_ms, double deadline_ms = -1.0) {
    sched::SubQuery s;
    s.query = q;
    s.atom = a;
    s.positions = positions;
    s.enqueue_time = util::SimTime::from_millis(enqueue_ms);
    if (deadline_ms >= 0.0) s.deadline = util::SimTime::from_millis(deadline_ms);
    return s;
}

TEST(Contracts, WorkloadManagerAuditsCleanThroughQueueChurn) {
    HandlerGuard guard;
    sched::CostConstants cost;
    cost.atoms_per_step = 64;
    sched::WorkloadManager m(cost, nullptr, 0.25);
    EXPECT_TRUE(m.audit());
    for (std::uint64_t i = 0; i < 48; ++i) {
        const storage::AtomId a{static_cast<std::uint32_t>(i % 3), i % 12};
        const double deadline = (i % 5 == 0) ? 1000.0 + static_cast<double>(i) : -1.0;
        m.enqueue(pending_sub(i, a, 100 + i * 7, static_cast<double>(i), deadline));
        ASSERT_TRUE(m.audit());
    }
    m.drain_atom(storage::AtomId{0, 0});
    EXPECT_TRUE(m.audit());
    m.on_residency_changed(storage::AtomId{1, 1});
    EXPECT_TRUE(m.audit());
    m.set_alpha(0.75);  // rebuilds the ordered index
    EXPECT_TRUE(m.audit());
    while (const auto best = m.pick_best_atom()) {
        m.drain_atom(*best);
        ASSERT_TRUE(m.audit());
    }
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(g_captured, 0u);
}

}  // namespace
}  // namespace jaws
