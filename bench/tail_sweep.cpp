// Tail-latency sweep — what hedged replica reads buy under heavy tails.
//
// The disk can draw seeded heavy-tailed service multipliers
// (DiskSpec::heavy_tail) and the fault injector can stall reads stuck
// (FaultSpec::stuck_read_rate); HedgeSpec counters that by duplicating a
// slow demand read on a replica channel and cancelling the loser. This
// harness sweeps tail severity x hedge policy x stuck-fault rate at equal
// seeds and reports the response-time distribution (p50/p95/p99/p999)
// alongside the price of hedging: duplicates issued/won, cancellations and
// the wasted service the cancelled losers had already rendered.
//
// Everything here runs on the virtual clock (wall_clock_overhead stays off),
// so repeated runs are bit-identical — including BENCH_tail_latency.json,
// which carries no wall-clock or timestamp fields by design.
#include <cinttypes>
#include <cstdio>

#include "experiments.h"

int main(int argc, char** argv) {
    using namespace jaws;
    const std::size_t jobs = bench::jobs_from_args(argc, argv, 200);
    const bench::TailSweep sweep = bench::tail_sweep(jobs, std::thread::hardware_concurrency());
    std::printf("# Tail sweep: JAWS_2, %zu queries, heavy-tail x hedge x stuck faults\n\n",
                sweep.queries);

    std::printf("%-10s %-6s %-6s %9s %9s %9s %9s %8s %6s %6s %10s %8s\n", "tail",
                "hedge", "stuck", "p50(ms)", "p95(ms)", "p99(ms)", "p999(ms)",
                "hedges", "won", "cancel", "waste(ms)", "waste%");
    for (const bench::TailRow& row : sweep.rows) {
        const core::RunReport& r = row.report;
        std::printf("%-10s %-6s %-6.2f %9.1f %9.1f %9.1f %9.1f %8llu %6llu "
                    "%6llu %10.1f %7.2f%%\n",
                    row.tail, row.hedged ? "on" : "off", row.stuck_rate,
                    r.median_response_ms, r.p95_response_ms, r.p99_response_ms,
                    r.p999_response_ms, static_cast<unsigned long long>(r.hedges_issued),
                    static_cast<unsigned long long>(r.hedges_won),
                    static_cast<unsigned long long>(r.cancellations),
                    r.wasted_service.millis(), 100.0 * bench::wasted_fraction(r));
    }

    // Paired p99 deltas: each hedged run against its unhedged twin (same
    // tail, same stuck rate, same seeds) — the headline tail-robustness win.
    std::printf("\n%-10s %-6s %12s %12s %10s\n", "tail", "stuck", "p99 off(ms)",
                "p99 on(ms)", "delta");
    for (std::size_t i = 0; i + 1 < sweep.rows.size(); i += 2) {
        const core::RunReport& off = sweep.rows[i].report;
        const core::RunReport& on = sweep.rows[i + 1].report;
        std::printf("%-10s %-6.2f %12.1f %12.1f %9.1f%%\n", sweep.rows[i].tail,
                    sweep.rows[i].stuck_rate, off.p99_response_ms, on.p99_response_ms,
                    100.0 * (on.p99_response_ms - off.p99_response_ms) /
                        off.p99_response_ms);
    }
    std::printf("\n(hedging pays wasted duplicate service to cut the tail; the\n"
                " tail=none rows bound its overhead when nothing straggles)\n");

    std::vector<std::vector<bench::JsonField>> rows;
    for (const bench::TailRow& row : sweep.rows) {
        const core::RunReport& r = row.report;
        rows.push_back({
            bench::json_field("tail", "\"%s\"", row.tail),
            bench::json_field("hedged", "%s", row.hedged ? "true" : "false"),
            bench::json_field("stuck_rate", "%.2f", row.stuck_rate),
            bench::json_field("p50_ms", "%.3f", r.median_response_ms),
            bench::json_field("p95_ms", "%.3f", r.p95_response_ms),
            bench::json_field("p99_ms", "%.3f", r.p99_response_ms),
            bench::json_field("p999_ms", "%.3f", r.p999_response_ms),
            bench::json_field("mean_ms", "%.3f", r.mean_response_ms),
            bench::json_field("hedges_issued", "%" PRIu64, r.hedges_issued),
            bench::json_field("hedges_won", "%" PRIu64, r.hedges_won),
            bench::json_field("hedges_lost", "%" PRIu64, r.hedges_lost),
            bench::json_field("cancellations", "%" PRIu64, r.cancellations),
            bench::json_field("wasted_service_ms", "%.3f", r.wasted_service.millis()),
            bench::json_field("wasted_fraction", "%.6f", bench::wasted_fraction(r)),
            bench::json_field("slow_draws", "%" PRIu64, r.disk.slow_draws),
            bench::json_field("stuck_reads", "%" PRIu64, r.faults.stuck_reads),
            bench::json_field("deadline_misses", "%" PRIu64, r.deadline_misses),
        });
    }
    const std::vector<bench::JsonField> header = {
        bench::json_field("jobs", "%zu", jobs),
        bench::json_field("queries", "%zu", sweep.queries),
        bench::json_field("note", "\"%s\"",
                          "virtual-clock only: repeated runs at the same job count produce a "
                          "byte-identical file; wasted_fraction is cancelled-loser service "
                          "over total disk busy time"),
    };
    return bench::write_json("BENCH_tail_latency.json", "tail_sweep", header, rows) ? 0 : 1;
}
