// Shared campaign — job-aware scheduling in action.
//
// Several users launch near-identical particle-tracking campaigns over the
// same region of interest, staggered in time (the pattern Sec. IV's Fig. 2
// motivates). The example runs the same campaign through JAWS with and
// without job-awareness and shows what gating buys: aligned execution,
// fewer atom reads, and faster completion — plus the gating-graph statistics
// (alignments, admitted/rejected edges).
//
//   $ ./shared_campaign [users] [chain_length]
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>

#include "core/engine.h"
#include "util/parse.h"
#include "workload/generator.h"

int main(int argc, char** argv) {
    using namespace jaws;
    // Each user launches four jobs, within the generator's job limit; a chain
    // longer than kMaxChain only slows the demonstration down.
    constexpr std::uint64_t kMaxUsers = workload::WorkloadSpec::kMaxJobs / 4;
    constexpr std::uint64_t kMaxChain = 10'000;
    const std::optional<std::uint64_t> users =
        argc > 1 ? util::parse_count(argv[1], 1, kMaxUsers) : 12;
    const std::optional<std::uint64_t> chain_arg =
        argc > 2 ? util::parse_count(argv[2], 1, kMaxChain) : 24;
    if (!users || !chain_arg) {
        std::fprintf(stderr,
                     "usage: %s [users] [chain_length]\n"
                     "  users: 1 to %llu (default 12)\n"
                     "  chain_length: 1 to %llu (default 24)\n",
                     argv[0], static_cast<unsigned long long>(kMaxUsers),
                     static_cast<unsigned long long>(kMaxChain));
        return 2;
    }
    const auto chain = static_cast<double>(*chain_arg);

    core::EngineConfig base;  // paper-scale dataset
    base.cache.capacity_atoms = 64;  // tight cache: regions don't fit, so
                                     // unaligned jobs re-read them from disk
    const field::SyntheticField field(base.field);

    // A campaign: every job is an ordered chain over the same hotspot,
    // arriving staggered so that un-aligned execution re-reads the region.
    workload::WorkloadSpec wspec;
    wspec.jobs = *users * 4;
    wspec.seed = 99;
    wspec.frac_single_step = 1.0;
    wspec.frac_full_span = 0.0;
    wspec.frac_ordered_single_step = 1.0;
    wspec.ordered_chain_mu = std::log(chain);
    wspec.ordered_chain_sigma = 0.1;
    wspec.hotspots = 2;
    wspec.hotspot_prob = 1.0;
    wspec.region_radius_mu = -2.0;  // ~40-atom regions
    wspec.mean_burst_gap_s = 10.0;
    wspec.mean_intra_burst_gap_s = 90.0;
    const workload::Workload workload = workload::generate_workload(wspec, base.grid, field);
    std::printf("campaign: %zu jobs, %zu queries, ~%.0f-query ordered chains\n\n",
                workload.jobs.size(), workload.total_queries(), chain);

    const auto run = [&](bool job_aware) {
        core::EngineConfig config = base;
        config.scheduler.kind = core::SchedulerKind::kJaws;
        config.scheduler.jaws.job_aware = job_aware;
        core::Engine engine(config);
        return engine.run(workload);
    };

    const core::RunReport without = run(false);
    const core::RunReport with = run(true);

    std::printf("%-24s %14s %14s\n", "", "JAWS_1 (no job)", "JAWS_2 (gated)");
    std::printf("%-24s %14.3f %14.3f\n", "throughput (q/s busy)", without.busy_throughput_qps,
                with.busy_throughput_qps);
    std::printf("%-24s %14.1f %14.1f\n", "mean response (s)",
                without.mean_response_ms / 1000.0, with.mean_response_ms / 1000.0);
    std::printf("%-24s %14llu %14llu\n", "atom reads",
                static_cast<unsigned long long>(without.atom_reads),
                static_cast<unsigned long long>(with.atom_reads));
    std::printf("%-24s %14.1f %14.1f\n", "mean job span (min)",
                without.mean_job_span_ms / 60000.0, with.mean_job_span_ms / 60000.0);

    const auto& g = with.gating;
    std::printf("\ngating graph: %zu pairwise alignments, %zu edges admitted\n",
                g.alignments_run, g.edges_admitted);
    std::printf("   rejected: %zu crossing/duplicate, %zu would-deadlock, "
                "%zu gating-number flags\n",
                g.edges_rejected_crossing, g.edges_rejected_deadlock,
                g.edges_rejected_gating_number);
    std::printf("   forced promotions (anti-stall): %zu  (0 means gating never "
                "wedged the schedule)\n",
                g.forced_promotions);
    if (without.atom_reads > with.atom_reads) {
        std::printf("\njob-awareness eliminated %llu redundant atom reads (%.1f%%)\n",
                    static_cast<unsigned long long>(without.atom_reads - with.atom_reads),
                    100.0 * static_cast<double>(without.atom_reads - with.atom_reads) /
                        static_cast<double>(without.atom_reads));
    }
    return 0;
}
