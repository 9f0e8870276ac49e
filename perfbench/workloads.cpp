#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <random>

#include "core/engine.h"
#include "core/metrics.h"
#include "report.h"
#include "util/stats.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using namespace jaws;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

core::SchedulerSpec noshare_spec() {
    core::SchedulerSpec s;
    s.kind = core::SchedulerKind::kNoShare;
    return s;
}

core::SchedulerSpec liferaft_spec(double alpha) {
    core::SchedulerSpec s;
    s.kind = core::SchedulerKind::kLifeRaft;
    s.liferaft_alpha = alpha;
    return s;
}

core::SchedulerSpec jaws_spec(bool job_aware) {
    core::SchedulerSpec s;
    s.kind = core::SchedulerKind::kJaws;
    s.jaws.batch_size_k = 15;
    s.jaws.job_aware = job_aware;
    return s;
}

const core::SchedulerSpec& jaws2_spec() { return fig10_systems().back().second; }

/// Virtual seconds per timeline window on traced runs (the replay's backlog
/// bound is the median pending depth over these windows).
constexpr double kTimelineWindowS = 5.0;

/// Opt-in wall-clock instrumentation: on for traced runs only.
void set_traced(core::EngineConfig& config, bool traced) {
    config.cache.wall_clock_overhead = traced;
    config.eval.wall_clock_timing = traced;
    config.timeline_window_s = traced ? kTimelineWindowS : 0.0;
}

std::uint64_t fold_u64(std::uint64_t h, std::uint64_t v) {
    return core::fnv1a64(h, &v, sizeof v);
}

std::uint64_t fold_f64(std::uint64_t h, double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return fold_u64(h, bits);
}

std::uint64_t fold_time(std::uint64_t h, util::SimTime t) {
    return fold_u64(h, static_cast<std::uint64_t>(t.raw_micros()));
}

/// Every deterministic field of `r`. Wall-clock fields (policy overhead,
/// evaluation wall time) and the opt-in timeline are left out.
std::uint64_t fold_report(std::uint64_t h, const core::RunReport& r) {
    for (const std::uint64_t v :
         {std::uint64_t{r.queries}, std::uint64_t{r.jobs}, r.cache.hits, r.cache.misses,
          r.cache.evictions, r.disk.requests, r.disk.sequential_requests,
          r.disk.aborted_requests, r.disk.bytes_read, r.disk.slow_draws,
          std::uint64_t{r.peak_cpu_busy}, std::uint64_t{r.peak_disk_busy},
          std::uint64_t{r.eval_threads}, r.eval_tasks, r.samples_evaluated, r.sample_digest,
          r.atoms_processed, r.atom_reads, r.replica_reads, r.support_reads, r.subqueries,
          r.positions, r.read_retries, r.read_failures, r.failed_subqueries,
          r.degraded_queries, std::uint64_t{r.halted}, r.hedges_issued, r.hedges_won,
          r.hedges_lost, r.cancellations, std::uint64_t{r.peak_hedges_outstanding},
          r.deadline_misses, r.retries_suppressed, r.prefetch_aborted})
        h = fold_u64(h, v);
    for (const util::SimTime t :
         {r.makespan, r.idle_time, r.disk.service_time, r.disk.fault_delay, r.disk_busy_time,
          r.cpu_busy_time, r.overlap_time, r.retry_backoff_time, r.wasted_service})
        h = fold_time(h, t);
    for (const double v : {r.throughput_qps, r.steady_throughput_qps, r.busy_throughput_qps,
                           r.mean_response_ms, r.median_response_ms, r.p95_response_ms,
                           r.p99_response_ms, r.p999_response_ms, r.mean_job_span_ms,
                           r.final_alpha})
        h = fold_f64(h, v);
    for (const double v : r.response_ms) h = fold_f64(h, v);
    return h;
}

/// Median of a run's pending sub-queries over its timeline windows.
std::size_t median_backlog(const core::RunReport& r) {
    if (r.timeline.empty()) return 0;
    std::vector<double> depth;
    depth.reserve(r.timeline.size());
    for (const core::TimelinePoint& tp : r.timeline)
        depth.push_back(static_cast<double>(tp.backlog_subqueries));
    return static_cast<std::size_t>(median(std::move(depth)));
}

/// p50 and the supported tail percentile of a response-time sample.
void set_latency(RunOutcome& out, std::vector<double> response_ms) {
    out.response_samples = response_ms.size();
    const TailChoice tail = choose_tail(response_ms.size());
    out.tail_percentile = tail.percentile;
    out.model_p50_ms = util::percentile(response_ms, 50.0);
    out.model_tail_ms = util::percentile(std::move(response_ms), tail.percentile);
}

/// Query-part accounting of one standalone engine run over `submitted` queries.
void count_parts(RunOutcome& out, const core::RunReport& r, std::uint64_t submitted) {
    out.submitted += submitted;
    out.degraded += r.degraded_queries;
    out.completed += r.queries - r.degraded_queries;
    out.positions += r.positions;
    out.interpolated += r.samples_evaluated;
}

/// Counters and model metrics of the headline (JAWS_2) engine run.
void set_headline(RunOutcome& out, const core::RunReport& r, double wall_s) {
    out.model_qps = r.busy_throughput_qps;
    out.model_hit_rate = r.cache.hit_rate();
    set_latency(out, r.response_ms);
    out.evictions = r.cache.evictions;
    out.disk_requests = r.disk.requests;
    out.sequential_requests = r.disk.sequential_requests;
    out.atom_reads = r.atom_reads;
    out.replica_reads = r.replica_reads;
    out.hedges_issued = r.hedges_issued;
    out.hedges_won = r.hedges_won;
    out.wasted_service_s = r.wasted_service.seconds();
    out.disk_busy_s = r.disk.total_busy().seconds();
    out.peak_cpu_busy = r.peak_cpu_busy;
    out.policy_overhead_ns = r.cache.policy_overhead_ns;
    out.headline_queries = r.queries;
    out.headline_wall_s = wall_s;
    out.eval_wall_ns = r.eval_wall_ns;
    out.eval_threads = r.eval_threads;
    out.median_backlog = median_backlog(r);
}

/// One timed Engine::run; the engine is built and torn down inside the span.
core::RunReport timed_engine_run(const core::EngineConfig& config,
                                 const workload::Workload& trace, double& wall_s) {
    const auto t0 = Clock::now();
    core::RunReport report;
    {
        core::Engine engine(config);
        report = engine.run(trace);
    }
    wall_s = seconds_since(t0);
    return report;
}

/// Generator seed of the fig10 and cluster traces (the repository benches'
/// default). The trace's composition is fixed: with different generator
/// seeds a few heavy-tailed jobs make 150-job traces differ by 40-70% in host
/// cost per query and modeled response time. The benchmark seed varies
/// everything else a run consumes (see jitter_arrivals).
constexpr std::uint64_t kTraceSeed = 7;
/// Largest arrival offset the benchmark seed adds to a job, in virtual s.
constexpr double kJitterS = 5.0;

/// Delay every job's arrival by a uniform draw in [0, max_s) from `seed`,
/// then restore arrival order (the engine requires it).
void jitter_arrivals(workload::Workload& w, std::uint64_t seed, double max_s) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> u(0.0, max_s);
    for (workload::Job& job : w.jobs) job.arrival += util::SimTime::from_seconds(u(rng));
    std::stable_sort(w.jobs.begin(), w.jobs.end(),
                     [](const auto& a, const auto& b) { return a.arrival < b.arrival; });
}

core::ClusterConfig projection_cluster(const core::EngineConfig& node) {
    core::ClusterConfig c;
    c.node = node;
    c.nodes = 4;
    c.replication = 2;
    return c;
}

// ---------------------------------------------------------------------------
// fig10_trace
// ---------------------------------------------------------------------------

class Fig10Trace final : public Workload {
  public:
    SetupTimes setup(std::uint64_t seed) override {
        SetupTimes t;
        trace_ = {};
        const auto t0 = Clock::now();
        const core::EngineConfig base = config(jaws2_spec(), false);
        const field::SyntheticField field(base.field);
        workload::WorkloadSpec spec;
        spec.jobs = kJobs;
        spec.seed = kTraceSeed;
        trace_ = workload::generate_workload(spec, base.grid, field);
        jitter_arrivals(trace_, seed, kJitterS);
        t.generate_s = seconds_since(t0);
        for (const auto& [name, sched] : fig10_systems()) core::Engine engine(config(sched, false));
        t.total_s = seconds_since(t0);
        return t;
    }

    RunOutcome run(bool traced) override {
        RunOutcome out;
        std::uint64_t h = core::kFnvOffset;
        for (const auto& [name, sched] : fig10_systems()) {
            double wall = 0.0;
            const core::RunReport r = timed_engine_run(config(sched, traced), trace_, wall);
            out.system_wall_s.emplace_back(name, wall);
            out.wall_s += wall;
            count_parts(out, r, trace_.total_queries());
            h = fold_report(h, r);
            if (name == "NoShare") out.noshare_qps = r.busy_throughput_qps;
            if (name == "JAWS_2") set_headline(out, r, wall);
        }
        out.fingerprint = h;
        return out;
    }

    double speedup_vs_noshare(const RunOutcome& first) override {
        return first.model_qps / first.noshare_qps;
    }

    std::vector<std::pair<std::string, double>> system_sweep(
        const std::vector<RunOutcome>& untraced) override {
        std::vector<std::pair<std::string, double>> out;
        for (std::size_t s = 0; s < fig10_systems().size(); ++s) {
            std::vector<double> walls;
            for (const RunOutcome& u : untraced) walls.push_back(u.system_wall_s[s].second);
            out.emplace_back(fig10_systems()[s].first, median(std::move(walls)));
        }
        return out;
    }

    ReplayInput replay_input() const override {
        ReplayInput in;
        in.trace = &trace_;
        in.node = config(jaws2_spec(), false);
        in.cluster = projection_cluster(in.node);
        in.event_depth = trace_.jobs.size();  // Engine::run schedules every arrival up front
        return in;
    }

  private:
    /// Paper scale: 6645 queries per system on the default 1024^3 grid,
    /// 4096 atoms per step, 31 steps and a 256-atom LRU-K cache.
    static constexpr std::size_t kJobs = 150;

    static core::EngineConfig config(const core::SchedulerSpec& sched, bool traced) {
        core::EngineConfig c;  // defaults are paper scale, io_depth 1, 1 worker
        c.scheduler = sched;
        set_traced(c, traced);
        return c;
    }

    workload::Workload trace_;
};

// ---------------------------------------------------------------------------
// materialized_eval
// ---------------------------------------------------------------------------

class MaterializedEval final : public Workload {
  public:
    explicit MaterializedEval(std::size_t threads) : threads_(threads) {}

    SetupTimes setup(std::uint64_t seed) override {
        SetupTimes t;
        trace_ = {};
        const auto t0 = Clock::now();
        const core::EngineConfig base = config(jaws2_spec(), true, true, false);
        const field::SyntheticField field(base.field);
        workload::WorkloadSpec spec;
        spec.jobs = kJobs;
        spec.seed = kTraceSeed;
        // Heavy queries (median ~8100 positions instead of the trace's ~490)
        // so real Lagrange interpolation dominates the run's wall time.
        spec.positions_mu = kPositionsMu;
        spec.min_positions = kMinPositions;
        spec.max_positions = 60000;
        trace_ = workload::generate_workload(spec, base.grid, field);
        jitter_arrivals(trace_, seed, kJitterS);
        t.generate_s = seconds_since(t0);
        const auto t1 = Clock::now();
        workload::materialize_positions(trace_, base.grid, seed + kPositionSeedOffset);
        t.materialize_s = seconds_since(t1);
        { core::Engine engine(base); }
        t.total_s = seconds_since(t0);

        expected_samples_ = 0;
        for (const workload::Job& job : trace_.jobs)
            for (const workload::Query& q : job.queries) expected_samples_ += q.positions.size();
        return t;
    }

    RunOutcome run(bool traced) override {
        RunOutcome out;
        double wall = 0.0;
        const core::RunReport r =
            timed_engine_run(config(jaws2_spec(), true, true, traced), trace_, wall);
        out.wall_s = wall;
        count_parts(out, r, trace_.total_queries());
        out.expected_interpolated = expected_samples_;
        set_headline(out, r, wall);
        out.fingerprint = fold_report(core::kFnvOffset, r);
        return out;
    }

    std::vector<std::string> process_checks() override {
        // Pooled and inline evaluation must produce bit-identical samples.
        // Compared on the smallest jobs holding at least kSliceSamples
        // positions: inline evaluation runs on one thread.
        std::vector<const workload::Job*> by_size;
        for (const workload::Job& job : trace_.jobs) by_size.push_back(&job);
        std::sort(by_size.begin(), by_size.end(), [](const auto* a, const auto* b) {
            return std::pair(a->total_positions(), a->id) < std::pair(b->total_positions(), b->id);
        });
        workload::Workload slice;
        std::uint64_t positions = 0;
        for (const workload::Job* job : by_size) {
            if (positions >= kSliceSamples) break;
            slice.jobs.push_back(*job);
            positions += job->total_positions();
        }
        std::sort(slice.jobs.begin(), slice.jobs.end(), [](const auto& a, const auto& b) {
            return std::pair(a.arrival, a.id) < std::pair(b.arrival, b.id);
        });
        double wall = 0.0;
        const core::RunReport pooled =
            timed_engine_run(config(jaws2_spec(), true, true, false), slice, wall);
        const core::RunReport inline_eval =
            timed_engine_run(config(jaws2_spec(), true, false, false), slice, wall);
        if (pooled.sample_digest != inline_eval.sample_digest ||
            pooled.samples_evaluated != inline_eval.samples_evaluated ||
            pooled.samples_evaluated == 0)
            return {"pooled_digest_matches_inline"};
        return {};
    }

    double speedup_vs_noshare(const RunOutcome&) override {
        // The virtual trace does not depend on materialization, so the ratio
        // comes from descriptor-only runs of both systems.
        double wall = 0.0;
        const core::RunReport jaws2 =
            timed_engine_run(config(jaws2_spec(), false, false, false), trace_, wall);
        const core::RunReport noshare =
            timed_engine_run(config(noshare_spec(), false, false, false), trace_, wall);
        return jaws2.busy_throughput_qps / noshare.busy_throughput_qps;
    }

    std::vector<std::pair<std::string, double>> system_sweep(
        const std::vector<RunOutcome>&) override {
        std::vector<std::pair<std::string, double>> out;
        for (const auto& [name, sched] : fig10_systems()) {
            double wall = 0.0;
            timed_engine_run(config(sched, false, false, false), trace_, wall);
            out.emplace_back(name, wall);
        }
        return out;
    }

    ReplayInput replay_input() const override {
        ReplayInput in;
        in.trace = &trace_;
        in.node = config(jaws2_spec(), true, true, false);
        in.cluster = projection_cluster(in.node);
        in.event_depth = trace_.jobs.size();
        return in;
    }

  private:
    static constexpr std::size_t kJobs = 8;
    /// bench/ablation_overlap's generator seed for this fixture.
    static constexpr std::uint64_t kTraceSeed = 5;
    static constexpr double kPositionsMu = 9.0;
    static constexpr std::uint64_t kMinPositions = 4000;
    static constexpr std::uint64_t kPositionSeedOffset = 10;
    static constexpr std::uint64_t kSliceSamples = 500000;

    /// The compute-bound fixture of bench/ablation_overlap: 128^3 grid, 32^3
    /// atoms, 4 steps, a 16-atom cache, io_depth 2 and one modeled worker
    /// per pool thread. The cache runs LRU, not LRU-K: the engine looks an
    /// item's payload up in the cache when its evaluation begins, and under
    /// LRU-K the other in-flight item's read can evict the freshly read,
    /// once-referenced atom first, so its sub-queries' samples are silently
    /// skipped (samples_match_positions catches it). Under LRU a fresh atom
    /// is the last victim, and with io_depth 2 at most one insert intervenes.
    core::EngineConfig config(const core::SchedulerSpec& sched, bool materialize, bool pooled,
                              bool traced) const {
        core::EngineConfig c;
        c.scheduler = sched;
        c.grid.voxels_per_side = 128;
        c.grid.atom_side = 32;
        c.grid.ghost = 4;
        c.grid.timesteps = 4;
        c.field.modes = 4;
        c.cache.policy = core::CachePolicy::kLru;
        c.cache.capacity_atoms = 16;
        c.run_length = 25;
        c.io_depth = 2;
        c.compute_workers = threads_;
        c.materialize_data = materialize;
        c.eval.parallel = pooled;
        set_traced(c, traced);
        return c;
    }

    std::size_t threads_;
    workload::Workload trace_;
    std::uint64_t expected_samples_ = 0;
};

// ---------------------------------------------------------------------------
// cluster_saturated
// ---------------------------------------------------------------------------

class ClusterSaturated final : public Workload {
  public:
    SetupTimes setup(std::uint64_t seed) override {
        SetupTimes t;
        trace_ = {};
        const auto t0 = Clock::now();
        const core::ClusterConfig base = config(jaws2_spec(), false, seed);
        const field::SyntheticField field(base.node.field);
        workload::WorkloadSpec spec;
        spec.jobs = kJobs;
        spec.seed = kTraceSeed;
        trace_ = workload::generate_workload(spec, base.node.grid, field);
        jitter_arrivals(trace_, seed, kJitterS);
        t.generate_s = seconds_since(t0);
        workload::apply_speedup(trace_, kSpeedup);
        concentrate_on_node(trace_, base.node.grid.atoms_per_step());
        const core::TurbulenceCluster cluster(base);
        t.total_s = seconds_since(t0);

        seed_ = seed;
        parts_ = 0;
        for (const workload::Job& job : trace_.jobs)
            for (const workload::Job& part : cluster.project(job)) parts_ += part.queries.size();
        return t;
    }

    RunOutcome run(bool traced) override {
        RunOutcome out;
        double wall = 0.0;
        const core::ClusterReport r = timed_cluster_run(jaws2_spec(), traced, wall);
        out.wall_s = wall;
        out.headline_wall_s = wall;

        out.submitted = parts_;
        out.degraded = r.degraded_queries;
        out.lost = r.lost_queries;
        std::uint64_t h = core::kFnvOffset;
        std::vector<double> response_ms;
        std::vector<std::size_t> backlog;
        for (const core::RunReport& n : r.per_node) {
            h = fold_report(h, n);
            out.completed += n.queries;
            out.positions += n.positions;
            out.interpolated += n.samples_evaluated;
            out.evictions += n.cache.evictions;
            out.disk_requests += n.disk.requests;
            out.sequential_requests += n.disk.sequential_requests;
            out.atom_reads += n.atom_reads;
            out.disk_busy_s += n.disk.total_busy().seconds();
            out.peak_cpu_busy = std::max(out.peak_cpu_busy, n.peak_cpu_busy);
            out.policy_overhead_ns += n.cache.policy_overhead_ns;
            out.headline_queries += n.queries;
            out.median_backlog = std::max(out.median_backlog, median_backlog(n));
            response_ms.insert(response_ms.end(), n.response_ms.begin(), n.response_ms.end());
        }
        out.completed -= out.degraded;
        for (const std::uint64_t v :
             {std::uint64_t{r.routed_queries}, std::uint64_t{r.rerouted_arrivals},
              std::uint64_t{r.replica_reads}, std::uint64_t{r.dead_nodes},
              std::uint64_t{r.failovers}, std::uint64_t{r.requeued_queries},
              std::uint64_t{r.lost_queries}})
            h = fold_u64(h, v);
        h = fold_time(h, r.makespan);
        h = fold_f64(h, r.total_throughput_qps);
        out.fingerprint = h;

        out.model_qps = r.total_throughput_qps;
        out.model_hit_rate = r.cache_hit_rate;
        set_latency(out, std::move(response_ms));
        out.replica_reads = r.replica_reads;
        out.hedges_issued = r.hedges_issued;
        out.hedges_won = r.hedges_won;
        out.wasted_service_s = r.wasted_service.seconds();
        out.requeued = r.requeued_queries;
        return out;
    }

    double speedup_vs_noshare(const RunOutcome& first) override {
        double wall = 0.0;
        const core::ClusterReport noshare = timed_cluster_run(noshare_spec(), false, wall);
        return first.model_qps / noshare.total_throughput_qps;
    }

    std::vector<std::pair<std::string, double>> system_sweep(
        const std::vector<RunOutcome>&) override {
        std::vector<std::pair<std::string, double>> out;
        for (const auto& [name, sched] : fig10_systems()) {
            double wall = 0.0;
            timed_cluster_run(sched, false, wall);
            out.emplace_back(name, wall);
        }
        return out;
    }

    ReplayInput replay_input() const override {
        ReplayInput in;
        in.trace = &trace_;
        in.cluster = config(jaws2_spec(), false, seed_);
        in.node = in.cluster.node;
        in.event_depth = parts_;  // one routing event per job part, scheduled up front
        return in;
    }

  private:
    static constexpr std::size_t kJobs = 150;
    static constexpr std::size_t kNodes = 4;
    static constexpr std::uint32_t kHotNode = 1;  ///< Takes every atom, then dies.
    static constexpr double kDeathSeconds = 30.0;
    static constexpr double kSpeedup = 16.0;      ///< Fig. 11's saturation knob.

    static core::ClusterConfig config(const core::SchedulerSpec& sched, bool traced,
                                      std::uint64_t seed) {
        core::ClusterConfig c;
        c.node.scheduler = sched;
        c.node.io_depth = 4;
        c.node.compute_workers = 4;
        // Heavy-tailed disk service with adaptive hedging (bench/tail_sweep's
        // "moderate" tail); the straggler draws follow the workload seed.
        c.node.disk.heavy_tail.rate = 0.05;
        c.node.disk.heavy_tail.lognormal_mu = 2.0;
        c.node.disk.heavy_tail.lognormal_sigma = 0.75;
        c.node.disk.heavy_tail.seed = 0x7A11 + seed;
        c.node.hedge.enabled = true;
        c.node.hedge.trigger_ewma_multiplier = 3.0;
        c.node.hedge.max_outstanding = 4;
        c.node.hedge.budget_per_query = 2;
        set_traced(c.node, traced);
        c.nodes = kNodes;
        c.replication = 2;
        c.node.faults.node_down.push_back(storage::NodeDownEvent{
            util::NodeIndex{kHotNode}, util::SimTime::from_seconds(kDeathSeconds)});
        return c;
    }

    core::ClusterReport timed_cluster_run(const core::SchedulerSpec& sched, bool traced,
                                          double& wall_s) const {
        const auto t0 = Clock::now();
        core::ClusterReport report =
            core::TurbulenceCluster(config(sched, traced, seed_)).run(trace_);
        wall_s = seconds_since(t0);
        return report;
    }

    /// Fold every footprint atom into the hot node's Morton range, spread
    /// over the whole range so its working set dwarfs the cache: the hot
    /// node's disk becomes the bottleneck, its replica absorbs diverted reads,
    /// and its death moves a deep backlog (bench/cluster_kernel's skew).
    static void concentrate_on_node(workload::Workload& w, std::uint64_t atoms_per_step) {
        const std::uint64_t per = (atoms_per_step + kNodes - 1) / kNodes;
        const std::uint64_t lo = per * kHotNode;
        for (workload::Job& job : w.jobs)
            for (workload::Query& q : job.queries) {
                std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> folded;
                for (const workload::AtomRequest& req : q.footprint)
                    folded[{req.atom.timestep, lo + req.atom.morton % per}] += req.positions;
                q.footprint.clear();
                for (const auto& [key, positions] : folded)
                    q.footprint.push_back({storage::AtomId{key.first, key.second}, positions});
            }
    }

    workload::Workload trace_;
    std::uint64_t seed_ = 0;
    std::uint64_t parts_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = {"fig10_trace", "materialized_eval",
                                                   "cluster_saturated"};
    return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::size_t threads) {
    if (name == "fig10_trace") return std::make_unique<Fig10Trace>();
    if (name == "materialized_eval") return std::make_unique<MaterializedEval>(threads);
    if (name == "cluster_saturated") return std::make_unique<ClusterSaturated>();
    return nullptr;
}

const std::vector<std::pair<std::string, core::SchedulerSpec>>& fig10_systems() {
    static const std::vector<std::pair<std::string, core::SchedulerSpec>> systems = {
        {"NoShare", noshare_spec()},
        {"LifeRaft_1", liferaft_spec(1.0)},
        {"LifeRaft_2", liferaft_spec(0.0)},
        {"JAWS_1", jaws_spec(false)},
        {"JAWS_2", jaws_spec(true)},
    };
    return systems;
}

}  // namespace perfbench
