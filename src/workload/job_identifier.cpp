#include "workload/job_identifier.h"

#include <algorithm>
#include <cassert>
#include <map>

namespace jaws::workload {

namespace {

/// An open per-user session the heuristics may extend.
struct Session {
    JobId label;
    storage::ComputeKind kind;
    std::uint32_t last_step;
    std::int32_t step_direction = 0;  ///< -1/0/+1 observed iteration direction.
    util::SimTime last_submit;
    std::size_t queries = 1;
};

}  // namespace

std::vector<JobId> identify_jobs(const std::vector<TraceRecord>& records,
                                 const JobIdentifierConfig& config) {
    // Records must be scanned in submission order; flatten() guarantees it,
    // but re-derive the order defensively without copying the records.
    std::vector<std::size_t> order(records.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return records[a].submit < records[b].submit;
    });

    std::vector<JobId> assignment(records.size(), kNoJob);
    std::map<UserId, std::vector<Session>> open;
    JobId next_label = 1;
    const auto max_gap = util::SimTime::from_seconds(config.max_gap_s);

    for (const std::size_t idx : order) {
        const TraceRecord& r = records[idx];
        auto& sessions = open[r.user];

        // Expire sessions that have been silent too long.
        std::erase_if(sessions,
                      [&](const Session& s) { return r.submit - s.last_submit > max_gap; });

        // Pick the best matching open session: same operation, and a time
        // step reachable from the session's trajectory (same step for
        // batched-style repetition, or a contiguous step for ordered
        // iteration, honouring the observed direction).
        Session* best = nullptr;
        std::int64_t best_score = -1;
        for (auto& s : sessions) {
            if (s.kind != r.kind) continue;
            const auto dstep = static_cast<std::int64_t>(r.timestep) -
                               static_cast<std::int64_t>(s.last_step);
            const bool step_ok =
                dstep == 0 ||
                (std::llabs(dstep) <= config.max_step_jump &&
                 (s.step_direction == 0 || s.step_direction == (dstep > 0 ? 1 : -1)));
            if (!step_ok) continue;
            // Prefer the most recently active candidate.
            const std::int64_t score = s.last_submit.raw_micros();
            if (score > best_score) {
                best_score = score;
                best = &s;
            }
        }

        if (best != nullptr) {
            assignment[idx] = best->label;
            const auto dstep = static_cast<std::int64_t>(r.timestep) -
                               static_cast<std::int64_t>(best->last_step);
            if (dstep != 0) best->step_direction = dstep > 0 ? 1 : -1;
            best->last_step = r.timestep;
            best->last_submit = r.submit;
            ++best->queries;
            continue;
        }

        // No session fits: open a new one (bounded per user; drop the oldest).
        Session s;
        s.label = next_label++;
        s.kind = r.kind;
        s.last_step = r.timestep;
        s.last_submit = r.submit;
        assignment[idx] = s.label;
        sessions.push_back(s);
        if (sessions.size() > config.max_open_sessions_per_user)
            sessions.erase(sessions.begin());
    }
    return assignment;
}

IdentificationQuality evaluate_identification(const std::vector<TraceRecord>& records,
                                              const std::vector<JobId>& assignment) {
    assert(records.size() == assignment.size());
    IdentificationQuality q;
    if (records.empty()) return q;

    // Contingency counts: pairs sharing a true job, an inferred job, or both.
    // n_{tc} = records with true job t and inferred cluster c.
    std::map<std::pair<JobId, JobId>, std::uint64_t> cell;
    std::map<JobId, std::uint64_t> true_size, cluster_size;
    for (std::size_t i = 0; i < records.size(); ++i) {
        ++cell[{records[i].true_job, assignment[i]}];
        ++true_size[records[i].true_job];
        ++cluster_size[assignment[i]];
    }
    const auto pairs = [](std::uint64_t n) { return n * (n - 1) / 2; };
    std::uint64_t both = 0, same_true = 0, same_cluster = 0;
    for (const auto& [key, n] : cell) both += pairs(n);
    for (const auto& [t, n] : true_size) same_true += pairs(n);
    for (const auto& [c, n] : cluster_size) same_cluster += pairs(n);
    q.pair_precision =
        same_cluster ? static_cast<double>(both) / static_cast<double>(same_cluster) : 1.0;
    q.pair_recall =
        same_true ? static_cast<double>(both) / static_cast<double>(same_true) : 1.0;

    // Exact recovery: a true job is exact iff some cluster contains exactly
    // its records and nothing else.
    std::uint64_t exact = 0;
    for (const auto& [key, n] : cell) {
        const auto& [t, c] = key;
        if (true_size.at(t) == n && cluster_size.at(c) == n) ++exact;
    }
    q.exact_jobs = static_cast<double>(exact) / static_cast<double>(true_size.size());
    return q;
}

}  // namespace jaws::workload
