// Table I — Performance and overhead of caching algorithms.
//
// Paper numbers (2 GB cache, JAWS scheduling):
//      policy   cache-hit   seconds/qry   overhead/qry
//      LRU-K       47%         1.62            -
//      SLRU        49%         1.56          < 1 ms
//      URC         54%         1.39            7 ms
// Exploiting workload knowledge buys URC ~7 points of hit rate and ~16% of
// query performance, SLRU ~2 points and ~4%, at single-digit-millisecond
// overhead. We run JAWS_2 over the same trace with each policy (plus plain
// LRU as an extra baseline) and report the same three columns; overhead is
// real measured wall time spent inside the policy, per completed query, so
// the cells run one after another on one thread.
#include <cstdio>

#include "experiments.h"

int main(int argc, char** argv) {
    using namespace jaws;
    const bench::Experiment table = bench::table1(bench::jobs_from_args(argc, argv, 300), 1);
    std::printf("# Table I reproduction: %zu jobs, %zu queries, cache %zu atoms\n", table.jobs,
                table.queries, bench::base_config().cache.capacity_atoms);

    std::printf("\n%-8s %10s %14s %14s\n", "policy", "cache-hit", "seconds/qry",
                "overhead/qry");
    for (std::size_t i = 0; i < std::size(bench::kTable1Policies); ++i) {
        const core::RunReport& r = table.runs[i];
        std::printf("%-8s %9.1f%% %14.3f %11.3f ms\n", bench::kTable1Policies[i],
                    100.0 * r.cache.hit_rate(), 1.0 / r.busy_throughput_qps,
                    r.cache_overhead_per_query_ms);
    }

    const core::RunReport& lruk = table.runs[1];
    const core::RunReport& slru = table.runs[2];
    const core::RunReport& urc = table.runs[4];
    std::printf("\nSLRU over LRU-K: %+5.1f%% query performance (paper: ~+4%%)\n",
                100.0 * (slru.busy_throughput_qps / lruk.busy_throughput_qps - 1.0));
    std::printf("URC  over LRU-K: %+5.1f%% query performance (paper: ~+16%%)\n",
                100.0 * (urc.busy_throughput_qps / lruk.busy_throughput_qps - 1.0));
    std::printf("hit-rate deltas: SLRU %+.1f pts, URC %+.1f pts (paper: +2, +7)\n",
                100.0 * (slru.cache.hit_rate() - lruk.cache.hit_rate()),
                100.0 * (urc.cache.hit_rate() - lruk.cache.hit_rate()));
    return 0;
}
