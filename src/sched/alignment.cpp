#include "sched/alignment.h"

#include <algorithm>
#include <cassert>

namespace jaws::sched {

bool queries_share_data(const workload::Query& a, const workload::Query& b) {
    if (a.timestep != b.timestep) return false;
    // Merge scan over the Morton-sorted footprints.
    std::size_t i = 0, j = 0;
    while (i < a.footprint.size() && j < b.footprint.size()) {
        const std::uint64_t ma = a.footprint[i].atom.morton;
        const std::uint64_t mb = b.footprint[j].atom.morton;
        if (ma == mb) return true;
        if (ma < mb)
            ++i;
        else
            ++j;
    }
    return false;
}

Alignment align_jobs(const workload::Job& a, const workload::Job& b) {
    const std::size_t n = a.queries.size();
    const std::size_t m = b.queries.size();
    Alignment out;
    if (n == 0 || m == 0) return out;

    // score(i, j) = best number of sharing pairs aligning a[0..i) with
    // b[0..j), row-major in one (n+1) x (m+1) buffer. Skips cost nothing, so
    // this is longest-common-subsequence-like with a sharing predicate:
    // m_{i,j} = max(m_{i-1,j-1} + s_{i,j}, m_{i,j-1}, m_{i-1,j}) exactly as in
    // the paper's Fig. 3.
    const std::size_t width = m + 1;
    std::vector<std::uint32_t> table((n + 1) * width, 0);
    const auto score = [&](std::size_t i, std::size_t j) -> std::uint32_t& {
        return table[i * width + j];
    };
    for (std::size_t i = 1; i <= n; ++i) {
        for (std::size_t j = 1; j <= m; ++j) {
            const std::uint32_t s =
                queries_share_data(a.queries[i - 1], b.queries[j - 1]) ? 1 : 0;
            score(i, j) = std::max({score(i - 1, j - 1) + s, score(i, j - 1),
                                    score(i - 1, j)});
        }
    }
    out.score = score(n, m);

    // Traceback, emitting only pairs that actually share data.
    std::size_t i = n, j = m;
    while (i > 0 && j > 0) {
        const std::uint32_t s =
            queries_share_data(a.queries[i - 1], b.queries[j - 1]) ? 1 : 0;
        if (s == 1 && score(i, j) == score(i - 1, j - 1) + 1) {
            out.pairs.push_back(AlignedPair{static_cast<std::uint32_t>(i - 1),
                                            static_cast<std::uint32_t>(j - 1)});
            --i;
            --j;
        } else if (score(i, j) == score(i - 1, j)) {
            --i;
        } else if (score(i, j) == score(i, j - 1)) {
            --j;
        } else {
            // Non-sharing diagonal move.
            --i;
            --j;
        }
    }
    std::reverse(out.pairs.begin(), out.pairs.end());
    assert(out.pairs.size() == out.score);
    return out;
}

}  // namespace jaws::sched
