// Micro-benchmarks of the core primitives (google-benchmark).
//
// Not a paper figure: these pin the per-operation costs behind the
// experiment harnesses — Morton coding, the Needleman-Wunsch alignment,
// replacement-policy operations, workload-queue maintenance and the
// interpolation kernels — so performance regressions in the substrate are
// visible. Running the binary also performs a
// deterministic scalar-vs-batched interpolation sweep and writes
// BENCH_interp_kernel.json (samples/sec per order plus a digests_agree
// flag); CI gates on batched >= scalar for orders >= 4.
#include <benchmark/benchmark.h>

#include <chrono>

#include "cache/buffer_cache.h"
#include "cache/lru_k.h"
#include "cache/slru.h"
#include "core/metrics.h"
#include "experiments.h"
#include "field/batch_interpolator.h"
#include "field/interpolation.h"
#include "sched/alignment.h"
#include "sched/workload_manager.h"
#include "util/morton.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace {

using namespace jaws;

void BM_MortonEncode(benchmark::State& state) {
    util::Rng rng(1);
    std::uint32_t x = 0, y = 0, z = 0;
    for (auto _ : state) {
        x = static_cast<std::uint32_t>(rng()) & 0x1fffff;
        y = x ^ 0x5555;
        z = x ^ 0xaaaa;
        benchmark::DoNotOptimize(util::morton_encode(x, y, z));
    }
}
BENCHMARK(BM_MortonEncode);

void BM_MortonRoundTrip(benchmark::State& state) {
    util::Rng rng(2);
    for (auto _ : state) {
        const std::uint64_t code = rng() & ((1ULL << 63) - 1);
        benchmark::DoNotOptimize(util::morton_encode(util::morton_decode(code)));
    }
}
BENCHMARK(BM_MortonRoundTrip);

void BM_MortonBoxCover(benchmark::State& state) {
    const auto side = static_cast<std::uint32_t>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            util::morton_box_cover({0, 0, 0}, {side - 1, side - 1, side - 1}));
    }
    state.SetItemsProcessed(state.iterations() * side * side * side);
}
BENCHMARK(BM_MortonBoxCover)->Arg(4)->Arg(8)->Arg(16);

workload::Job chain_job(std::size_t m, std::uint64_t seed) {
    field::GridSpec grid;
    field::SyntheticField field({seed});
    workload::WorkloadSpec spec;
    spec.jobs = 1;
    spec.seed = seed;
    spec.frac_single_step = 1.0;
    spec.frac_full_span = 0.0;
    spec.frac_ordered_single_step = 1.0;
    spec.ordered_chain_mu = std::log(static_cast<double>(m));
    spec.ordered_chain_sigma = 0.0;
    return workload::generate_workload(spec, grid, field).jobs.front();
}

void BM_NeedlemanWunsch(benchmark::State& state) {
    const auto m = static_cast<std::size_t>(state.range(0));
    const workload::Job a = chain_job(m, 7);
    const workload::Job b = chain_job(m, 8);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sched::align_jobs(a, b));
    }
    state.SetItemsProcessed(state.iterations() * m * m);
}
BENCHMARK(BM_NeedlemanWunsch)->Arg(16)->Arg(64);

void BM_CachePolicyChurn(benchmark::State& state) {
    // Insert/evict churn through a full cache, LRU-K vs SLRU.
    const bool slru = state.range(0) != 0;
    cache::BufferCache cache(
        256, slru ? std::unique_ptr<cache::ReplacementPolicy>(
                        std::make_unique<cache::SlruPolicy>(256))
                  : std::unique_ptr<cache::ReplacementPolicy>(
                        std::make_unique<cache::LruKPolicy>()));
    util::Rng rng(5);
    for (auto _ : state) {
        const storage::AtomId atom{static_cast<std::uint32_t>(rng.uniform_u64(31)),
                                   rng.uniform_u64(4096)};
        if (!cache.lookup(atom)) cache.insert(atom);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CachePolicyChurn)->Arg(0)->Arg(1);

void BM_WorkloadManagerEnqueueDrain(benchmark::State& state) {
    sched::CostConstants cost;
    sched::WorkloadManager manager(cost, nullptr, 0.5);
    util::Rng rng(6);
    std::uint64_t tick = 0;
    for (auto _ : state) {
        sched::SubQuery sub;
        sub.query = ++tick;
        sub.atom = storage::AtomId{static_cast<std::uint32_t>(rng.uniform_u64(31)),
                                   rng.uniform_u64(4096)};
        sub.positions = 100;
        sub.enqueue_time = util::SimTime::from_micros(static_cast<std::int64_t>(tick));
        manager.enqueue(sub);
        if (tick % 8 == 0) {
            const auto batch = manager.pick_two_level_batch(15, sub.enqueue_time);
            for (const auto& atom : batch) benchmark::DoNotOptimize(manager.drain_atom(atom));
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorkloadManagerEnqueueDrain);

// --- interpolation kernels: scalar vs batched ------------------------------

/// Production-like fixture: one atom_side=64 ghost=4 block (the paper-scale
/// geometry) and positions drawn uniformly inside the atom.
struct InterpFixture {
    static field::GridSpec interp_grid() {
        field::GridSpec g;
        g.voxels_per_side = 256;
        g.atom_side = 64;
        g.ghost = 4;
        g.timesteps = 2;
        return g;
    }

    InterpFixture()
        : grid(interp_grid()),
          field({.seed = 9, .modes = 6}),
          atom{1, 2, 3},
          block(grid, field, atom, 0) {
        util::Rng rng(11);
        const double extent = 1.0 / grid.atoms_per_side();
        positions.resize(20000);
        for (auto& p : positions)
            p = {(atom.x + rng.uniform()) * extent, (atom.y + rng.uniform()) * extent,
                 (atom.z + rng.uniform()) * extent};
    }

    field::GridSpec grid;
    field::SyntheticField field;
    util::Coord3 atom;
    field::VoxelBlock block;
    std::vector<field::Vec3> positions;
};

InterpFixture& interp_fixture() {
    static InterpFixture f;
    return f;
}

constexpr field::InterpOrder kInterpOrders[] = {
    field::InterpOrder::kLinear, field::InterpOrder::kLag4, field::InterpOrder::kLag6,
    field::InterpOrder::kLag8};

void BM_InterpScalar(benchmark::State& state) {
    const InterpFixture& f = interp_fixture();
    const auto order = static_cast<field::InterpOrder>(state.range(0));
    std::vector<field::FlowSample> out(f.positions.size());
    for (auto _ : state) {
        for (std::size_t i = 0; i < f.positions.size(); ++i)
            out[i] = field::interpolate(f.grid, f.block, f.atom, f.positions[i], order);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * f.positions.size());
}
BENCHMARK(BM_InterpScalar)->Arg(2)->Arg(4)->Arg(6)->Arg(8);

void BM_InterpBatched(benchmark::State& state) {
    const InterpFixture& f = interp_fixture();
    const auto order = static_cast<field::InterpOrder>(state.range(0));
    field::BatchInterpolator batch;
    std::vector<field::FlowSample> out;
    for (auto _ : state) {
        batch.evaluate(f.grid, f.block, f.atom, f.positions, order, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * f.positions.size());
}
BENCHMARK(BM_InterpBatched)->Arg(2)->Arg(4)->Arg(6)->Arg(8);

std::uint64_t sample_digest(const std::vector<field::FlowSample>& samples) {
    std::uint64_t h = core::kFnvOffset;
    for (const field::FlowSample& s : samples) {
        const double v[4] = {s.velocity.x, s.velocity.y, s.velocity.z, s.pressure};
        h = core::fnv1a64(h, v, sizeof v);
    }
    return h;
}

/// Deterministic scalar-vs-batched sweep; returns samples/sec as the best of
/// `reps` timed passes (best-of filters scheduler noise on shared CI hosts).
template <typename F>
double best_samples_per_sec(int reps, std::size_t n, F&& pass) {
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        pass();
        const double dt =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
        if (dt < best) best = dt;
    }
    return static_cast<double>(n) / best;
}

int run_interp_kernel_sweep() {
    const InterpFixture& f = interp_fixture();
    const std::size_t n = f.positions.size();
    std::printf("interpolation kernel sweep: %zu positions, atom_side=%u ghost=%u\n\n",
                n, f.grid.atom_side, f.grid.ghost);
    std::printf("%-8s %14s %14s %9s %12s\n", "order", "scalar(s/s)", "batched(s/s)",
                "speedup", "bit-ident");

    std::vector<std::vector<bench::JsonField>> rows;
    bool digests_agree = true;
    field::BatchInterpolator batch;
    for (const field::InterpOrder order : kInterpOrders) {
        std::vector<field::FlowSample> scalar_out(n), batched_out;
        const double scalar_sps = best_samples_per_sec(5, n, [&] {
            for (std::size_t i = 0; i < n; ++i)
                scalar_out[i] =
                    field::interpolate(f.grid, f.block, f.atom, f.positions[i], order);
        });
        const double batched_sps = best_samples_per_sec(
            5, n, [&] { batch.evaluate(f.grid, f.block, f.atom, f.positions, order, batched_out); });
        const bool identical = sample_digest(scalar_out) == sample_digest(batched_out);
        digests_agree = digests_agree && identical;
        rows.push_back({
            bench::json_field("order", "%d", static_cast<int>(order)),
            bench::json_field("scalar_sps", "%.0f", scalar_sps),
            bench::json_field("batched_sps", "%.0f", batched_sps),
            bench::json_field("speedup", "%.3f", batched_sps / scalar_sps),
            bench::json_field("bit_identical", "%s", identical ? "true" : "false"),
        });
        std::printf("%-8d %14.0f %14.0f %8.2fx %12s\n", static_cast<int>(order),
                    scalar_sps, batched_sps, batched_sps / scalar_sps,
                    identical ? "yes" : "NO");
    }

    const std::vector<bench::JsonField> header = {
        bench::json_field("positions", "%zu", n),
        bench::json_field("atom_side", "%u", f.grid.atom_side),
        bench::json_field("ghost", "%u", f.grid.ghost),
        bench::json_field("digests_agree", "%s", digests_agree ? "true" : "false"),
        bench::json_field("note", "\"%s\"",
                          "samples/sec is the best of 5 single-thread passes over one "
                          "materialized production-geometry block; digests_agree requires the "
                          "batched kernel to be bit-identical to the scalar kernel at every "
                          "order"),
    };
    if (!bench::write_json("BENCH_interp_kernel.json", "interp_kernel", header, rows)) return 1;
    std::printf("\n");
    return digests_agree ? 0 : 1;
}

}  // namespace

// The interp sweep runs before the google-benchmark registrations so CI gets
// BENCH_interp_kernel.json from a plain `./micro_primitives` invocation; a
// digest mismatch fails the binary even if every micro-bench runs clean.
int main(int argc, char** argv) {
    const int sweep_rc = run_interp_kernel_sweep();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return sweep_rc;
}
