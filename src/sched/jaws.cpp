#include "sched/jaws.h"

#include <cstdio>

namespace jaws::sched {

JawsScheduler::JawsScheduler(const CostConstants& cost, const cache::BufferCache* cache,
                             const JawsConfig& config)
    : config_(config),
      probe_(cache != nullptr ? std::make_unique<CacheResidencyProbe>(*cache) : nullptr),
      manager_(cost, probe_.get(), config.alpha.initial_alpha),
      graph_(config.job_aware),
      controller_(config.alpha) {}

std::string JawsScheduler::name() const {
    char buf[64];
    std::snprintf(buf, sizeof buf, "JAWS(%s k=%zu)", config_.job_aware ? "job-aware" : "base",
                  config_.batch_size_k);
    return buf;
}

void JawsScheduler::on_job_submitted(const workload::Job& job) {
    graph_.add_job(job);
}

void JawsScheduler::enqueue_query(workload::QueryId id, util::SimTime now) {
    const workload::Query& q = graph_.query(id);
    util::SimTime deadline{INT64_MAX};
    if (config_.qos.enabled) {
        // Size-proportional completion guarantee (paper Sec. VII): a query's
        // deadline scales with its own estimated service time, so short
        // queries are promised short waits and long queries long ones.
        const double est_ms =
            manager_.cost().t_b_ms * static_cast<double>(q.footprint.size()) +
            manager_.cost().t_m_ms * static_cast<double>(q.total_positions());
        deadline = now + util::SimTime::from_millis(config_.qos.slack_factor * est_ms);
        deadlines_.get_or_insert(id) = deadline;
        ++qos_stats_.guaranteed;
    }
    split_.clear();
    preprocess(q, now, split_);
    for (SubQuery& sub : split_) {
        sub.deadline = deadline;
        manager_.enqueue(sub);
    }
}

void JawsScheduler::on_query_visible(const workload::Query& query, util::SimTime now) {
    // The graph may promote this query immediately, later (once its gating
    // partners are READY), or promote partners that were waiting on it.
    for (const workload::QueryId id : graph_.on_query_visible(query.id))
        enqueue_query(id, now);
}

void JawsScheduler::on_query_completed(workload::QueryId query, util::SimTime response,
                                       util::SimTime now) {
    for (const workload::QueryId id : graph_.on_query_done(query)) enqueue_query(id, now);
    if (config_.qos.enabled) {
        const auto s = deadlines_.find(query);
        if (s != util::SlotIndex::kNone) {
            if (now > deadlines_[s]) {
                ++qos_stats_.misses;
                qos_stats_.tardiness_ms_sum += (now - deadlines_[s]).millis();
            }
            deadlines_.erase(query);
        }
    }
    if (config_.adaptive_alpha) controller_.on_query_completed(response, now);
}

void JawsScheduler::on_run_boundary(util::SimTime now) {
    if (!config_.adaptive_alpha) return;
    controller_.close_run(now);
    manager_.set_alpha(controller_.alpha());
}

void JawsScheduler::on_residency_changed(const storage::AtomId& atom) {
    manager_.on_residency_changed(atom);
}

void JawsScheduler::next_batch(util::SimTime now, Batch& out) {
    out.clear();
    if (config_.qos.enabled) {
        // Deadline rescue: depart from contention order only when the
        // earliest guarantee is at risk ("there is still elasticity in the
        // workload that permits the reordering of queries" — Sec. VII).
        const auto margin = util::SimTime::from_millis(config_.qos.margin_ms);
        bool rescued = false;
        while (out.items.size() < config_.batch_size_k) {
            const auto urgent = manager_.earliest_deadline_atom();
            if (!urgent || urgent->second - now > margin) break;
            out.add_drained(manager_, urgent->first);
            rescued = true;
        }
        if (rescued) {
            ++qos_stats_.edf_dispatches;
            return;
        }
    }
    manager_.pick_two_level_batch(config_.batch_size_k, now, picks_);
    for (const storage::AtomId& atom : picks_) out.add_drained(manager_, atom);
}

bool JawsScheduler::unstick(util::SimTime now) {
    if (!graph_.has_ready()) return false;
    const auto released = graph_.force_promote_oldest_ready();
    for (const workload::QueryId id : released) enqueue_query(id, now);
    return !released.empty();
}

}  // namespace jaws::sched
