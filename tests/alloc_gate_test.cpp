// Allocation gate for the descriptor hot path.
//
// This binary replaces the global operator new with a counting one and
// counts the heap allocations made inside Engine::run on a descriptor-only
// run of the default paper grid. In steady state the event kernel (slot
// table), the workload manager (one sub-query slab, recycled queue nodes),
// the batch hand-off (engine-owned buffers) and the LRU-K cache (recycled
// nodes) allocate nothing per sub-query, so what remains is per query or per
// job (the engine's query runtimes, the gating graph) plus the one-off growth
// of the reused buffers. The gate pins that at <= 0.5 allocations per
// sub-query, well above the steady state (about 0.25 here) and well below
// what one container node per sub-query or per event costs (2-3).
//
// Sanitizer runtimes and the audit build allocate on their own (the audits
// build scratch sets at transitions), so there the gate is skipped and the
// counting operator new is not compiled in.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "core/engine.h"
#include "field/synthetic_field.h"
#include "workload/generator.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define JAWS_ALLOC_GATE_SKIP "sanitizer runtimes allocate on their own"
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define JAWS_ALLOC_GATE_SKIP "sanitizer runtimes allocate on their own"
#endif
#endif
#if !defined(JAWS_ALLOC_GATE_SKIP) && defined(JAWS_AUDIT_BUILD) && JAWS_AUDIT_BUILD
#define JAWS_ALLOC_GATE_SKIP "audit builds allocate inside their audits"
#endif

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

#ifndef JAWS_ALLOC_GATE_SKIP
// The array and nothrow forms of the standard library forward to these.
void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(align);
    if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
    throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
#endif

namespace jaws::core {
namespace {

constexpr double kMaxAllocationsPerSubquery = 0.5;

/// JAWS_2, LifeRaft_2 and NoShare all run this 20-job trace.
const workload::Workload& gate_trace() {
    static const workload::Workload trace = [] {
        const EngineConfig config;
        const field::SyntheticField field(config.field);
        workload::WorkloadSpec spec;
        spec.jobs = 20;
        spec.seed = 7;
        return workload::generate_workload(spec, config.grid, field);
    }();
    return trace;
}

class AllocGate : public ::testing::Test {
  protected:
    void SetUp() override {
#ifdef JAWS_ALLOC_GATE_SKIP
        GTEST_SKIP() << JAWS_ALLOC_GATE_SKIP;
#endif
    }

    /// Run `scheduler` on the gate trace and check the allocations made
    /// inside Engine::run per sub-query served.
    static void expect_within_gate(const SchedulerSpec& scheduler) {
        EngineConfig config;  // the default paper grid and cache
        config.scheduler = scheduler;
        Engine engine(config);
        const workload::Workload& trace = gate_trace();  // generated outside the count
        const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
        const RunReport report = engine.run(trace);
        const std::uint64_t allocations =
            g_allocations.load(std::memory_order_relaxed) - before;
        ASSERT_GT(report.subqueries, 0u);
        const double per_subquery =
            static_cast<double>(allocations) / static_cast<double>(report.subqueries);
        RecordProperty("allocations_per_subquery", std::to_string(per_subquery));
        EXPECT_LE(per_subquery, kMaxAllocationsPerSubquery)
            << allocations << " allocations for " << report.subqueries << " sub-queries";
    }
};

TEST_F(AllocGate, Jaws2) {
    SchedulerSpec s;
    s.kind = SchedulerKind::kJaws;
    s.jaws.job_aware = true;
    expect_within_gate(s);
}

TEST_F(AllocGate, LifeRaft2) {
    SchedulerSpec s;
    s.kind = SchedulerKind::kLifeRaft;
    s.liferaft_alpha = 0.0;
    expect_within_gate(s);
}

TEST_F(AllocGate, NoShare) {
    SchedulerSpec s;
    s.kind = SchedulerKind::kNoShare;
    expect_within_gate(s);
}

}  // namespace
}  // namespace jaws::core
