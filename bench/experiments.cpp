#include "experiments.h"

#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <utility>

namespace jaws::bench {

namespace {

// --- tail sweep ----------------------------------------------------------

struct TailLevel {
    const char* name;
    double rate;   ///< Probability a read draws a slow multiplier.
    double mu;     ///< lognormal_mu of the multiplier distribution.
    double sigma;  ///< lognormal_sigma.
};

constexpr TailLevel kTails[] = {
    {"none", 0.0, 0.0, 0.0},
    {"moderate", 0.05, 2.0, 0.75},
    {"severe", 0.15, 3.0, 0.5},
};
constexpr double kStuckRates[] = {0.0, 0.02};

core::EngineConfig tail_config(const TailLevel& tail, bool hedged, double stuck_rate) {
    core::EngineConfig config = base_config();
    // Bit-identical repeats: keep every measurement on the virtual clock.
    config.cache.wall_clock_overhead = false;
    config.scheduler = jaws2_spec();
    config.io_depth = 4;  // hedges need a replica channel to land on
    config.compute_workers = 2;
    config.disk.heavy_tail.rate = tail.rate;
    config.disk.heavy_tail.lognormal_mu = tail.mu;
    config.disk.heavy_tail.lognormal_sigma = tail.sigma;
    config.disk.heavy_tail.seed = 0x7A11;
    config.faults.seed = 0xFA17;
    config.faults.stuck_read_rate = stuck_rate;
    config.faults.stuck_read_ms = 400.0;
    config.hedge.enabled = hedged;
    config.hedge.trigger_ewma_multiplier = 3.0;  // adaptive trigger (EWMA)
    config.hedge.max_outstanding = 4;
    config.hedge.budget_per_query = 2;
    return config;
}

// --- cluster kernel ------------------------------------------------------

/// The generator's calibrated spatial mix, then every footprint atom folded
/// onto one node's range.
constexpr const char* kSkews[] = {"uniform", "hot-node"};

/// Fig. 11's saturation knob: compress arrival gaps so queues actually form —
/// replica routing only matters when the owner's disk has a backlog to dodge.
constexpr double kClusterSpeedup = 16.0;

core::ClusterConfig cluster_config(std::size_t replication, bool death) {
    core::ClusterConfig config;
    config.node = base_config();
    // Bit-identical repeats: keep every measurement on the virtual clock.
    config.node.cache.wall_clock_overhead = false;
    config.node.scheduler = jaws2_spec();
    config.node.io_depth = 4;         // several reads in flight per node, so a
    config.node.compute_workers = 4;  // backlogged owner is visible at route time
    config.node.timeline_window_s = 5.0;
    config.nodes = kClusterNodes;
    config.replication = replication;
    if (death)
        config.node.faults.node_down.push_back(storage::NodeDownEvent{
            util::NodeIndex{static_cast<std::uint32_t>(kDeadNode)},
            util::SimTime::from_seconds(kDeathSeconds)});
    return config;
}

/// Fold every footprint atom into `node`'s Morton range, spreading over the
/// whole range so the hot node's working set dwarfs its cache: the node's
/// *disk* becomes the cluster bottleneck (a hot cached region would not be),
/// which is the regime replica-aware routing exists for. Duplicate atoms
/// created by the fold are merged and footprints stay Morton-sorted.
void concentrate_on_node(workload::Workload& w, std::uint64_t atoms_per_step,
                         std::size_t node) {
    const std::uint64_t per = (atoms_per_step + kClusterNodes - 1) / kClusterNodes;
    const std::uint64_t lo = per * static_cast<std::uint64_t>(node);
    for (auto& job : w.jobs)
        for (auto& q : job.queries) {
            std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> folded;
            for (const auto& req : q.footprint)
                folded[{req.atom.timestep, lo + req.atom.morton % per}] += req.positions;
            q.footprint.clear();
            for (const auto& [key, positions] : folded)
                q.footprint.push_back({storage::AtomId{key.first, key.second}, positions});
        }
}

/// Mean disk utilisation of the surviving nodes' timeline windows ending
/// before (`after = false`) or after (`after = true`) the death instant.
double survivor_util(const core::ClusterReport& r, bool after) {
    const util::SimTime death = util::SimTime::from_seconds(kDeathSeconds);
    double sum = 0.0;
    std::size_t windows = 0;
    for (std::size_t n = 0; n < r.per_node.size(); ++n) {
        if (n == kDeadNode) continue;
        for (const auto& tp : r.per_node[n].timeline) {
            if ((tp.window_end > death) != after) continue;
            sum += tp.disk_utilization;
            ++windows;
        }
    }
    return windows > 0 ? sum / static_cast<double>(windows) : 0.0;
}

}  // namespace

core::EngineConfig base_config() {
    core::EngineConfig config;  // defaults are already paper-scale
    // Benches report real policy overhead (Table I); tests keep the
    // deterministic virtual tick default.
    config.cache.wall_clock_overhead = true;
    return config;
}

workload::WorkloadSpec base_workload_spec() {
    workload::WorkloadSpec spec;
    spec.jobs = 1000;
    spec.seed = 7;
    return spec;
}

workload::Workload base_workload(std::size_t jobs, const core::EngineConfig& config) {
    workload::WorkloadSpec spec = base_workload_spec();
    spec.jobs = jobs;
    return workload::generate_workload(spec, config.grid, field::SyntheticField(config.field));
}

std::optional<std::size_t> parse_jobs(const char* text) {
    const char* end = text + std::strlen(text);
    std::size_t jobs = 0;
    const auto [stop, error] = std::from_chars(text, end, jobs);
    if (error != std::errc() || stop != end || jobs == 0 ||
        jobs > workload::WorkloadSpec::kMaxJobs)
        return std::nullopt;
    return jobs;
}

std::size_t jobs_from_args(int argc, char** argv, std::size_t fallback) {
    const char* text = argc > 1 ? argv[1] : std::getenv("JAWS_BENCH_JOBS");
    if (text == nullptr) return fallback;
    if (const std::optional<std::size_t> jobs = parse_jobs(text)) return *jobs;
    std::fprintf(stderr,
                 "usage: %s [jobs]\n"
                 "  jobs: a positive integer up to %zu (default %zu); JAWS_BENCH_JOBS\n"
                 "  sets it when no argument is given. Got \"%s\".\n",
                 argv[0], workload::WorkloadSpec::kMaxJobs, fallback, text);
    std::exit(2);
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

core::SchedulerSpec jaws1_spec(std::size_t k) {
    core::SchedulerSpec s;
    s.kind = core::SchedulerKind::kJaws;
    s.jaws.batch_size_k = k;
    s.jaws.job_aware = false;
    return s;
}

core::SchedulerSpec jaws2_spec(std::size_t k) {
    core::SchedulerSpec s;
    s.kind = core::SchedulerKind::kJaws;
    s.jaws.batch_size_k = k;
    s.jaws.job_aware = true;
    return s;
}

core::RunReport run_one(const core::EngineConfig& config, const workload::Workload& workload) {
    core::Engine engine(config);
    return engine.run(workload);
}

Experiment fig10(std::size_t jobs, std::size_t threads) {
    const core::EngineConfig base = base_config();
    const workload::Workload workload = base_workload(jobs, base);
    const core::SchedulerSpec specs[] = {noshare_spec(), liferaft_spec(1.0), liferaft_spec(0.0),
                                         jaws1_spec(), jaws2_spec()};
    return {workload.jobs.size(), workload.total_queries(),
            run_cells(std::size(specs), threads, [&](std::size_t i) {
                core::EngineConfig config = base;
                config.scheduler = specs[i];
                core::RunReport r = run_one(config, workload);
                r.scheduler_name = kFig10Systems[i];
                return r;
            })};
}

Experiment fig11(std::size_t jobs, std::size_t threads) {
    const core::EngineConfig base = base_config();
    // The base trace is the saturated operating point; sweep both downward
    // (idle system) and upward (overload). Each speed-up's trace is shared
    // by its systems' cells.
    const workload::Workload original = base_workload(jobs, base);
    std::vector<workload::Workload> traces(std::size(kFig11Speedups), original);
    for (std::size_t i = 0; i < traces.size(); ++i)
        workload::apply_speedup(traces[i], kFig11Speedups[i]);
    const core::SchedulerSpec specs[] = {noshare_spec(), liferaft_spec(1.0), liferaft_spec(0.0),
                                         jaws2_spec()};
    static_assert(std::size(specs) == std::size(kFig11Systems));
    return {original.jobs.size(), original.total_queries(),
            run_cells(traces.size() * std::size(specs), threads, [&](std::size_t cell) {
                core::EngineConfig config = base;
                config.scheduler = specs[cell % std::size(specs)];
                return run_one(config, traces[cell / std::size(specs)]);
            })};
}

Experiment fig12(std::size_t jobs, std::size_t threads) {
    const core::EngineConfig base = base_config();
    const workload::Workload workload = base_workload(jobs, base);
    return {workload.jobs.size(), workload.total_queries(),
            run_cells(1 + std::size(kFig12Ks), threads, [&](std::size_t cell) {
                core::EngineConfig config = base;
                config.scheduler =
                    cell == 0 ? liferaft_spec(0.0) : jaws2_spec(kFig12Ks[cell - 1]);
                return run_one(config, workload);
            })};
}

std::size_t fig12_best_k(const Experiment& fig12) {
    double best_tp = 0.0;
    std::size_t best_k = 0;
    for (std::size_t i = 0; i < std::size(kFig12Ks); ++i) {
        if (fig12.runs[1 + i].busy_throughput_qps > best_tp) {
            best_tp = fig12.runs[1 + i].busy_throughput_qps;
            best_k = kFig12Ks[i];
        }
    }
    return best_k;
}

Experiment table1(std::size_t jobs, std::size_t threads) {
    const core::EngineConfig base = base_config();
    const workload::Workload workload = base_workload(jobs, base);
    constexpr core::CachePolicy policies[] = {core::CachePolicy::kLru, core::CachePolicy::kLruK,
                                              core::CachePolicy::kSlru, core::CachePolicy::kTwoQ,
                                              core::CachePolicy::kUrc};
    static_assert(std::size(policies) == std::size(kTable1Policies));
    return {workload.jobs.size(), workload.total_queries(),
            run_cells(std::size(policies), threads, [&](std::size_t i) {
                core::EngineConfig config = base;
                config.scheduler = jaws2_spec();
                config.cache.policy = policies[i];
                return run_one(config, workload);
            })};
}

TailSweep tail_sweep(std::size_t jobs, std::size_t threads) {
    const workload::Workload workload =
        base_workload(jobs, tail_config(kTails[0], /*hedged=*/false, 0.0));
    constexpr std::size_t per_tail = 2 * std::size(kStuckRates);
    return {workload.total_queries(),
            run_cells(std::size(kTails) * per_tail, threads, [&](std::size_t cell) {
                TailRow row;
                row.tail = kTails[cell / per_tail].name;
                row.stuck_rate = kStuckRates[(cell / 2) % std::size(kStuckRates)];
                row.hedged = cell % 2 == 1;
                row.report = run_one(
                    tail_config(kTails[cell / per_tail], row.hedged, row.stuck_rate), workload);
                return row;
            })};
}

double wasted_fraction(const core::RunReport& r) {
    const double busy = r.disk.total_busy().millis();
    return busy > 0.0 ? r.wasted_service.millis() / busy : 0.0;
}

std::vector<ClusterRow> cluster_kernel(std::size_t jobs, std::size_t threads) {
    const core::ClusterConfig probe = cluster_config(1, false);
    std::vector<workload::Workload> traces(std::size(kSkews), base_workload(jobs, probe.node));
    for (workload::Workload& trace : traces) workload::apply_speedup(trace, kClusterSpeedup);
    concentrate_on_node(traces[1], probe.node.grid.atoms_per_step(), kDeadNode);
    // Per skew: replication 1, 2, 3, each without and then with the death,
    // so replication 1 leads its skew as the paired baseline.
    constexpr std::size_t per_skew = 6;
    return run_cells(std::size(kSkews) * per_skew, threads, [&](std::size_t cell) {
        ClusterRow row;
        row.skew = kSkews[cell / per_skew];
        row.replication = 1 + (cell % per_skew) / 2;
        row.death = cell % 2 == 1;
        row.report = core::TurbulenceCluster(cluster_config(row.replication, row.death))
                         .run(traces[cell / per_skew]);
        if (row.death) {
            row.survivor_util_before = survivor_util(row.report, false);
            row.survivor_util_after = survivor_util(row.report, true);
        }
        return row;
    });
}

double replica_share(const core::ClusterReport& r) {
    std::uint64_t reads = 0;
    for (const auto& n : r.per_node) reads += n.atom_reads;
    return reads > 0 ? static_cast<double>(r.replica_reads) / static_cast<double>(reads) : 0.0;
}

JsonField json_field(const char* key, const char* format, ...) {
    std::va_list args;
    va_start(args, format);
    std::va_list again;
    va_copy(again, args);
    std::string value(static_cast<std::size_t>(std::vsnprintf(nullptr, 0, format, args)), '\0');
    std::vsnprintf(value.data(), value.size() + 1, format, again);
    va_end(again);
    va_end(args);
    return {key, std::move(value)};
}

bool write_json(const std::string& path, const char* bench, const std::vector<JsonField>& header,
                const std::vector<std::vector<JsonField>>& rows) {
    std::ofstream json(path);
    json << "{\n  \"bench\": \"" << bench << "\",\n";
    for (const JsonField& f : header) json << "  \"" << f.key << "\": " << f.value << ",\n";
    json << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        json << "    {";
        for (std::size_t j = 0; j < rows[i].size(); ++j)
            json << (j ? ", " : "") << '"' << rows[i][j].key << "\": " << rows[i][j].value;
        json << (i + 1 < rows.size() ? "},\n" : "}\n");
    }
    json << "  ]\n}\n";
    json.close();
    if (!json) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    std::printf("\nwrote %s\n", path.c_str());
    return true;
}

}  // namespace jaws::bench
