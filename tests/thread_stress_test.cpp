// Multithreaded stress cases for the annotated concurrency layer.
//
// These tests exist primarily as ThreadSanitizer targets (the `tsan` preset
// runs the full suite): they force real contention on every mutex-protected
// structure this repository owns — the thread pool's queue and the
// cluster's shared evaluation pool — so data races surface as
// TSan reports instead of flaky goldens. They also pin the determinism
// contract that motivates the whole layer: concurrent runs of the same
// configuration must produce bit-identical reports.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "core/cluster.h"
#include "core/engine.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "workload/generator.h"

namespace jaws {
namespace {

/// Mutex-guarded counter exercising util::Mutex/MutexLock under contention.
class GuardedCounter {
  public:
    void add(std::uint64_t v) {
        util::MutexLock lock(mu_);
        value_ += v;
    }
    std::uint64_t get() {
        util::MutexLock lock(mu_);
        return value_;
    }

  private:
    util::Mutex mu_;
    std::uint64_t value_ GUARDED_BY(mu_) = 0;
};

TEST(ThreadStress, OversubscribedPoolHammersOneGuardedCounter) {
    // Far more workers than cores, all incrementing the same guarded
    // counter: maximal lock contention plus constant queue churn.
    util::ThreadPool pool(32);
    GuardedCounter counter;
    constexpr int kTasks = 4000;
    for (int i = 0; i < kTasks; ++i) pool.submit([&counter] { counter.add(1); });
    pool.wait_idle();
    EXPECT_EQ(counter.get(), static_cast<std::uint64_t>(kTasks));
}

TEST(ThreadStress, ConcurrentProducersAgainstDrainingDestructor) {
    // N producer threads race submissions into the pool; the pool is then
    // destroyed while much of the queue is still outstanding. The destructor
    // contract: every task submitted before ~ThreadPool begins still runs.
    std::atomic<int> ran{0};
    constexpr int kProducers = 8;
    constexpr int kPerProducer = 200;
    {
        util::ThreadPool pool(4);
        std::vector<std::thread> producers;
        producers.reserve(kProducers);
        for (int p = 0; p < kProducers; ++p) {
            producers.emplace_back([&pool, &ran] {
                for (int i = 0; i < kPerProducer; ++i)
                    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
            });
        }
        for (auto& t : producers) t.join();
        // Pool destructor runs here, with tasks still queued on 4 workers.
    }
    EXPECT_EQ(ran.load(), kProducers * kPerProducer);
}

TEST(ThreadStress, WaitIdleRacesActiveWorkers) {
    util::ThreadPool pool(8);
    std::atomic<int> done{0};
    for (int round = 0; round < 20; ++round) {
        for (int i = 0; i < 64; ++i) {
            pool.submit([&done] {
                std::this_thread::sleep_for(std::chrono::microseconds(50));
                done.fetch_add(1, std::memory_order_relaxed);
            });
        }
        pool.wait_idle();
        EXPECT_EQ(done.load(), (round + 1) * 64);
    }
}

core::ClusterConfig stress_cluster_config() {
    core::ClusterConfig config;
    config.nodes = 4;
    config.replication = 2;
    config.node.grid.voxels_per_side = 128;
    config.node.grid.atom_side = 32;
    config.node.grid.timesteps = 4;
    config.node.field.modes = 4;
    config.node.cache.capacity_atoms = 16;
    config.node.run_length = 25;
    config.node.compute_workers = 2;
    // Real payloads: every node engine dispatches interpolation onto the
    // cluster's one shared evaluation pool, whose workers each keep
    // thread_local BatchInterpolator scratch.
    config.node.materialize_data = true;
    // Kill a node mid-run so in-kernel failover re-injects its work into a
    // survivor while evaluations are in flight.
    config.node.faults.node_down.push_back(
        storage::NodeDownEvent{util::NodeIndex{1}, util::SimTime::from_seconds(30.0)});
    return config;
}

workload::Workload stress_cluster_workload(const core::ClusterConfig& config) {
    workload::WorkloadSpec spec;
    spec.jobs = 16;
    spec.seed = 21;
    spec.max_positions = 600;  // bound the real interpolation work per query
    const field::SyntheticField field(config.node.field);
    workload::Workload w = workload::generate_workload(spec, config.node.grid, field);
    workload::materialize_positions(w, config.node.grid, /*seed=*/23);
    return w;
}

TEST(ThreadStress, ParallelClusterRunsAreRaceFreeAndIdentical) {
    // Two whole cluster runs execute concurrently, each evaluating on its
    // own shared pool, while this thread runs a third. Determinism
    // contract: all three reports are bit-identical even though their
    // real-thread interleavings differ completely.
    const core::ClusterConfig config = stress_cluster_config();
    const workload::Workload workload = stress_cluster_workload(config);

    core::ClusterReport a, b;
    std::thread ta([&] {
        const core::TurbulenceCluster cluster(config);
        a = cluster.run(workload);
    });
    std::thread tb([&] {
        const core::TurbulenceCluster cluster(config);
        b = cluster.run(workload);
    });
    const core::TurbulenceCluster cluster(config);
    const core::ClusterReport c = cluster.run(workload);
    ta.join();
    tb.join();

    ASSERT_GT(c.makespan, util::SimTime::zero());
    ASSERT_GT(c.failovers, 0u);
    std::uint64_t eval_tasks = 0;
    for (const core::RunReport& n : c.per_node) eval_tasks += n.eval_tasks;
    ASSERT_GT(eval_tasks, 0u) << "the shared evaluation pool never ran";
    // Every field, the virtual-tick policy overhead included.
    EXPECT_TRUE(a == c);
    EXPECT_TRUE(b == c);
}

core::EngineConfig eval_stress_config() {
    core::EngineConfig c;
    c.grid.voxels_per_side = 128;
    c.grid.atom_side = 32;
    c.grid.timesteps = 4;
    c.field.modes = 4;
    c.cache.capacity_atoms = 16;
    c.run_length = 25;
    c.io_depth = 2;
    c.compute_workers = 4;
    c.materialize_data = true;  // real payloads so evaluation hits the pool
    return c;
}

workload::Workload eval_stress_workload(const core::EngineConfig& c) {
    workload::WorkloadSpec spec;
    spec.jobs = 6;
    spec.seed = 9;
    spec.max_positions = 400;
    const field::SyntheticField field(c.field);
    workload::Workload w = workload::generate_workload(spec, c.grid, field);
    workload::materialize_positions(w, c.grid, /*seed=*/13);
    return w;
}

TEST(ThreadStress, ConcurrentEnginesSharingOneEvalPoolStayBitIdentical) {
    // Three engines run concurrently, all dispatching real sub-query
    // interpolation onto ONE shared evaluation pool, while a fourth engine
    // evaluates everything inline on this thread as the reference. The
    // shared queue interleaves tasks from unrelated engines arbitrarily;
    // the deterministic reduction (join at the modeled completion event)
    // must make every report bit-identical to the inline reference anyway.
    core::EngineConfig cfg = eval_stress_config();
    const workload::Workload work = eval_stress_workload(cfg);

    core::EngineConfig inline_cfg = cfg;
    inline_cfg.eval.parallel = false;
    core::Engine reference(inline_cfg);
    const core::RunReport ref = reference.run(work);
    ASSERT_GT(ref.samples_evaluated, 0u);

    util::ThreadPool shared(4);
    cfg.eval.pool = &shared;
    constexpr int kEngines = 3;
    std::vector<core::RunReport> reports(kEngines);
    std::vector<std::thread> runners;
    runners.reserve(kEngines);
    for (int e = 0; e < kEngines; ++e)
        runners.emplace_back([&cfg, &work, &reports, e] {
            core::Engine engine(cfg);
            reports[static_cast<std::size_t>(e)] = engine.run(work);
        });
    for (auto& t : runners) t.join();

    for (int e = 0; e < kEngines; ++e) {
        SCOPED_TRACE("engine " + std::to_string(e));
        core::RunReport r = reports[static_cast<std::size_t>(e)];
        EXPECT_GT(r.eval_tasks, 0u) << "never used the pool";
        // Only where evaluation ran may differ from the inline reference:
        // the pool's workers and the sub-queries handed to them.
        r.eval_threads = 0;
        r.eval_tasks = 0;
        EXPECT_TRUE(r == ref);
    }
}

TEST(ThreadStress, RepeatedPooledEngineRunsAreBitIdentical) {
    // Back-to-back pooled runs of the same configuration: real-thread
    // interleaving differs every time, the reports must not. Two rounds
    // rather than many keeps the tsan run inside its time budget.
    const core::EngineConfig cfg = eval_stress_config();
    const workload::Workload work = eval_stress_workload(cfg);
    core::Engine first(cfg);
    const core::RunReport r1 = first.run(work);
    core::Engine second(cfg);
    const core::RunReport r2 = second.run(work);
    ASSERT_GT(r1.eval_tasks, 0u);
    ASSERT_GT(r1.samples_evaluated, 0u);
    EXPECT_TRUE(r1 == r2);
}

TEST(ThreadStress, CondVarPingPong) {
    // Direct Mutex/CondVar exercise: two threads alternate strictly via a
    // guarded turn flag, 500 rounds each way.
    struct Court {
        util::Mutex mu;
        util::CondVar cv;
        int turn GUARDED_BY(mu) = 0;
        int rallies GUARDED_BY(mu) = 0;
    } court;
    constexpr int kRallies = 1000;

    auto player = [&court](int me) {
        for (;;) {
            util::MutexLock lock(court.mu);
            while (court.turn != me && court.rallies < kRallies) court.cv.wait(court.mu);
            if (court.rallies >= kRallies) return;
            ++court.rallies;
            court.turn = 1 - me;
            court.cv.notify_all();
        }
    };
    std::thread a(player, 0), b(player, 1);
    a.join();
    b.join();
    util::MutexLock lock(court.mu);
    EXPECT_EQ(court.rallies, kRallies);
}

}  // namespace
}  // namespace jaws
