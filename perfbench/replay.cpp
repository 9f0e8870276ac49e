#include "replay.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <random>
#include <string>

#include "cache/buffer_cache.h"
#include "cache/lru.h"
#include "cache/lru_k.h"
#include "core/cluster.h"
#include "core/engine.h"
#include "core/metrics.h"
#include "field/batch_interpolator.h"
#include "sched/subquery.h"
#include "sched/workload_manager.h"
#include "storage/atom_store.h"
#include "util/event_queue.h"
#include "util/morton.h"
#include "util/thread_pool.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using namespace jaws;
using Clock = std::chrono::steady_clock;

/// Passes over the same inputs; every per-call figure is the median pass.
constexpr int kPasses = 3;

double ns_between(Clock::time_point t0, Clock::time_point t1) {
    return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

/// Median over kPasses of (wall ns of one pass) / (units the pass did).
template <class Pass>
double per_unit_ns(Pass&& pass) {
    std::vector<double> per_unit;
    for (int p = 0; p < kPasses; ++p) {
        const auto t0 = Clock::now();
        const double units = pass();
        per_unit.push_back(ns_between(t0, Clock::now()) / std::max(units, 1.0));
    }
    return median(std::move(per_unit));
}

/// Keeps the optimizer from discarding work whose result is otherwise unused.
volatile std::uint64_t g_sink = 0;

/// EventQueue::schedule + run_one at a standing depth of `depth` pending
/// events: the hold model, where each fired event schedules its successor.
double event_ns(std::size_t depth, std::uint64_t seed) {
    constexpr std::size_t kSteps = 200000;
    std::mt19937_64 rng(seed);
    const std::int64_t horizon = static_cast<std::int64_t>(std::max<std::size_t>(depth, 1)) * 1000;
    std::uniform_int_distribution<std::int64_t> gap(1, horizon);
    util::EventQueue q;
    std::uint64_t fired = 0;
    const auto handler = [&fired] { ++fired; };
    for (std::size_t i = 0; i < depth; ++i)
        q.schedule(util::SimTime::from_micros(gap(rng)), core::Engine::kPriArrival, handler);
    const double ns = per_unit_ns([&] {
        for (std::size_t i = 0; i < kSteps; ++i) {
            q.schedule(q.now() + util::SimTime::from_micros(gap(rng)), core::Engine::kPriArrival,
                       handler);
            q.run_one();
        }
        return static_cast<double>(kSteps);
    });
    g_sink = fired;
    return ns;
}

/// ThreadPool::submit until the task's future is ready, one task at a time.
double pool_dispatch_ns(std::size_t threads) {
    constexpr int kWarmup = 200;
    constexpr int kTasks = 2000;
    util::ThreadPool pool(threads);
    std::vector<double> latency;
    for (int i = 0; i < kWarmup + kTasks; ++i) {
        const auto t0 = Clock::now();
        pool.submit([i] { return i; }).get();
        if (i >= kWarmup) latency.push_back(ns_between(t0, Clock::now()));
    }
    return median(std::move(latency));
}

/// Queries in submission order: job arrival plus the think times before each
/// query (service time is not modeled here), ties by query id.
std::vector<std::pair<util::SimTime, const workload::Query*>> submission_order(
    const workload::Workload& trace) {
    std::vector<std::pair<util::SimTime, const workload::Query*>> order;
    for (const workload::Job& job : trace.jobs) {
        util::SimTime at = job.arrival;
        for (const workload::Query& q : job.queries) {
            if (&q != &job.queries.front()) at += q.think_time;
            order.emplace_back(at, &q);
        }
    }
    std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
        return std::pair(a.first, a.second->id) < std::pair(b.first, b.second->id);
    });
    return order;
}

class CacheProbe final : public sched::ResidencyProbe {
  public:
    explicit CacheProbe(const cache::BufferCache& cache) : cache_(cache) {}
    bool resident(const storage::AtomId& atom) const override { return cache_.contains(atom); }

  private:
    const cache::BufferCache& cache_;
};

struct ManagerReplay {
    double enqueue_ns = 0.0;  ///< Per sub-query.
    double pick_ns = 0.0;     ///< Per pick_two_level_batch call.
    double drain_ns = 0.0;    ///< Per drain_atom call.
    double insert_evict_ns = 0.0;  ///< Per BufferCache::insert that evicted.
    std::size_t peak_pending_atoms = 0;
    double hit_rate = 0.0;
    std::vector<storage::AtomId> misses;  ///< Atoms read, in replay order.
};

ManagerReplay replay_manager(const ReplayInput& in, std::size_t backlog_bound) {
    const core::EngineConfig& node = in.node;
    sched::CostConstants cost = node.estimates;
    cost.atoms_per_step = node.grid.atoms_per_step();
    const std::size_t k = node.scheduler.jaws.batch_size_k;
    const std::size_t bound = std::max(backlog_bound, k);

    std::unique_ptr<cache::ReplacementPolicy> policy;
    if (node.cache.policy == core::CachePolicy::kLru)
        policy = std::make_unique<cache::LruPolicy>();
    else
        policy = std::make_unique<cache::LruKPolicy>(node.cache.lru_k);
    cache::BufferCache cache(node.cache.capacity_atoms, std::move(policy));
    const CacheProbe probe(cache);
    sched::WorkloadManager manager(cost, &probe, node.scheduler.jaws.alpha.initial_alpha);

    ManagerReplay out;
    double enqueue_ns = 0.0, pick_ns = 0.0, drain_ns = 0.0, evict_ns = 0.0;
    std::uint64_t enqueued = 0, picks = 0, drains = 0, evicting = 0, hits = 0;

    const auto serve_batch = [&](util::SimTime now) {
        auto t0 = Clock::now();
        std::vector<storage::AtomId> atoms = manager.pick_two_level_batch(k, now);
        pick_ns += ns_between(t0, Clock::now());
        ++picks;
        if (atoms.empty()) return false;
        for (const storage::AtomId& atom : atoms) {
            t0 = Clock::now();
            const std::vector<sched::SubQuery> subs = manager.drain_atom(atom);
            drain_ns += ns_between(t0, Clock::now());
            ++drains;
            g_sink = g_sink + subs.size();
            if (cache.lookup(atom)) {
                ++hits;
                continue;
            }
            out.misses.push_back(atom);
            t0 = Clock::now();
            const std::optional<storage::AtomId> victim = cache.insert(atom);
            const double dt = ns_between(t0, Clock::now());
            if (victim) {
                evict_ns += dt;
                ++evicting;
                manager.on_residency_changed(*victim);
            }
            manager.on_residency_changed(atom);
        }
        return true;
    };

    util::SimTime now;
    for (const auto& [at, query] : submission_order(*in.trace)) {
        now = at;
        const std::vector<sched::SubQuery> subs = sched::preprocess(*query, now);
        const auto t0 = Clock::now();
        for (const sched::SubQuery& sub : subs) manager.enqueue(sub);
        enqueue_ns += ns_between(t0, Clock::now());
        enqueued += subs.size();
        out.peak_pending_atoms = std::max(out.peak_pending_atoms, manager.pending_atoms());
        while (manager.pending_subqueries() > bound && serve_batch(now)) {
        }
    }
    while (!manager.empty() && serve_batch(now)) {
    }

    const auto per = [](double total, std::uint64_t n) {
        return n > 0 ? total / static_cast<double>(n) : 0.0;
    };
    out.enqueue_ns = per(enqueue_ns, enqueued);
    out.pick_ns = per(pick_ns, picks);
    out.drain_ns = per(drain_ns, drains);
    out.insert_evict_ns = per(evict_ns, evicting);
    out.hit_rate = per(static_cast<double>(hits), hits + out.misses.size());
    return out;
}

storage::AtomStoreSpec store_spec(const core::EngineConfig& node, bool materialize) {
    storage::AtomStoreSpec spec;
    spec.grid = node.grid;
    spec.field = node.field;
    spec.disk = node.disk;
    spec.io_channels = node.io_depth;
    spec.materialize_data = materialize;
    return spec;
}

/// Uniform positions inside `atom`'s box (how materialize_positions fills a
/// footprint entry).
std::vector<field::Vec3> positions_in(const field::GridSpec& grid, const storage::AtomId& atom,
                                      std::size_t count, std::mt19937_64& rng) {
    const util::Coord3 c = util::morton_decode(atom.morton);
    const double side = static_cast<double>(grid.atoms_per_side());
    std::uniform_real_distribution<double> u(0.0, 1.0);
    std::vector<field::Vec3> out;
    out.reserve(count);
    while (out.size() < count) {
        const field::Vec3 p{(c.x + u(rng)) / side, (c.y + u(rng)) / side, (c.z + u(rng)) / side};
        if (grid.atom_morton_of(p) == atom.morton) out.push_back(p);
    }
    return out;
}

}  // namespace

double time_materialize(const ReplayInput& in, std::uint64_t seed) {
    workload::Workload copy = *in.trace;
    const auto t0 = Clock::now();
    workload::materialize_positions(copy, in.node.grid, seed);
    return ns_between(t0, Clock::now()) * 1e-9;
}

std::vector<Metric> replay_layers(const ReplayInput& in, std::size_t backlog_bound,
                                  std::size_t threads, std::uint64_t seed) {
    const workload::Workload& trace = *in.trace;
    const field::GridSpec& grid = in.node.grid;
    std::vector<Metric> m;

    m.push_back({"util.event_ns", event_ns(in.event_depth, seed), "ns"});
    m.push_back({"util.pool_dispatch_ns", pool_dispatch_ns(threads), "ns"});

    std::uint64_t queries = 0, subqueries = 0;
    const double preprocess_ns = per_unit_ns([&] {
        queries = subqueries = 0;
        for (const workload::Job& job : trace.jobs)
            for (const workload::Query& q : job.queries) {
                subqueries += sched::preprocess(q, job.arrival).size();
                ++queries;
            }
        return static_cast<double>(queries);
    });
    m.push_back({"sched.preprocess_ns_per_query", preprocess_ns, "ns"});
    m.push_back({"sched.subqueries_per_query",
                 static_cast<double>(subqueries) / static_cast<double>(queries), "count"});

    std::vector<ManagerReplay> runs;
    for (int p = 0; p < kPasses; ++p) runs.push_back(replay_manager(in, backlog_bound));
    const auto med = [&](double ManagerReplay::*field) {
        std::vector<double> v;
        for (const ManagerReplay& r : runs) v.push_back(r.*field);
        return median(std::move(v));
    };
    const ManagerReplay& first = runs.front();
    m.push_back({"sched.wm_enqueue_ns", med(&ManagerReplay::enqueue_ns), "ns"});
    m.push_back({"sched.wm_pick_ns", med(&ManagerReplay::pick_ns), "ns"});
    m.push_back({"sched.wm_drain_ns", med(&ManagerReplay::drain_ns), "ns"});
    m.push_back({"sched.wm_peak_pending_atoms", static_cast<double>(first.peak_pending_atoms),
                 "count"});
    m.push_back({"cache.insert_evict_ns", med(&ManagerReplay::insert_evict_ns), "ns"});
    m.push_back({"cache.replay_hit_rate", first.hit_rate, "ratio"});

    // Descriptor reads of the replay's misses, repeated to a steady count.
    constexpr std::size_t kMinReads = 20000;
    std::vector<storage::AtomId> reads = first.misses;
    if (reads.empty())
        for (const workload::Job& job : trace.jobs)
            for (const workload::Query& q : job.queries)
                for (const workload::AtomRequest& r : q.footprint) reads.push_back(r.atom);
    storage::AtomStore store(store_spec(in.node, false));
    const double read_ns = per_unit_ns([&] {
        std::size_t n = 0;
        std::int64_t io = 0;
        while (n < kMinReads)
            for (const storage::AtomId& atom : reads) {
                io += store.read(atom).io_cost.raw_micros();
                ++n;
            }
        g_sink = static_cast<std::uint64_t>(io);
        return static_cast<double>(n);
    });
    m.push_back({"storage.read_ns", read_ns, "ns"});

    // Materialized reads of the first distinct misses; about 4M voxels in all.
    const std::uint64_t edge = grid.atom_side + 2ULL * grid.ghost;
    const std::size_t atoms =
        std::clamp<std::size_t>((std::size_t{1} << 22) / (edge * edge * edge), 2, 16);
    std::vector<storage::AtomId> distinct;
    for (const storage::AtomId& a : reads)
        if (std::find(distinct.begin(), distinct.end(), a) == distinct.end()) {
            distinct.push_back(a);
            if (distinct.size() == atoms) break;
        }
    storage::AtomStore materializing(store_spec(in.node, true));
    std::vector<std::shared_ptr<const field::VoxelBlock>> blocks;
    const auto t0 = Clock::now();
    for (const storage::AtomId& a : distinct) blocks.push_back(materializing.read(a).data);
    m.push_back({"storage.materialize_ns_per_atom",
                 ns_between(t0, Clock::now()) / static_cast<double>(distinct.size()), "ns"});

    // Interpolation of uniform positions inside those atoms, per order the
    // generator emits, in sub-query-sized calls.
    constexpr std::size_t kSamples = std::size_t{1} << 17;
    constexpr std::size_t kCall = 4096;
    std::mt19937_64 rng(seed);
    std::vector<std::vector<field::Vec3>> positions;
    for (const storage::AtomId& a : distinct)
        positions.push_back(positions_in(grid, a, kSamples / distinct.size(), rng));
    std::vector<field::FlowSample> samples;
    for (const auto& [name, order] : {std::pair{"lag4", field::InterpOrder::kLag4},
                                      std::pair{"lag8", field::InterpOrder::kLag8}}) {
        field::BatchInterpolator interp;
        const double ns = per_unit_ns([&] {
            samples.clear();
            for (std::size_t i = 0; i < distinct.size(); ++i) {
                const util::Coord3 c = util::morton_decode(distinct[i].morton);
                const std::vector<field::Vec3>& ps = positions[i];
                for (std::size_t off = 0; off < ps.size(); off += kCall) {
                    const std::size_t n = std::min(kCall, ps.size() - off);
                    const std::size_t base = samples.size();
                    samples.resize(base + n);
                    interp.evaluate(grid, *blocks[i], c, ps.data() + off, n, order,
                                    samples.data() + base);
                }
            }
            return static_cast<double>(samples.size());
        });
        m.push_back({std::string("field.interp_ns_per_sample.") + name, ns, "ns"});
    }

    // The engine's digest fold: FNV-1a over four doubles per sample.
    const double fold_ns = per_unit_ns([&] {
        std::uint64_t h = core::kFnvOffset;
        for (const field::FlowSample& s : samples) {
            const double vals[4] = {s.velocity.x, s.velocity.y, s.velocity.z, s.pressure};
            h = core::fnv1a64(h, vals, sizeof vals);
        }
        g_sink = h;
        return static_cast<double>(samples.size());
    });
    m.push_back({"core.fold_ns_per_sample", fold_ns, "ns"});

    const core::TurbulenceCluster cluster(in.cluster);
    const double project_ns = per_unit_ns([&] {
        std::size_t parts = 0;
        for (const workload::Job& job : trace.jobs) parts += cluster.project(job).size();
        g_sink = parts;
        return static_cast<double>(trace.jobs.size());
    });
    m.push_back({"core.cluster_project_ns_per_job", project_ns, "ns"});
    return m;
}

}  // namespace perfbench
