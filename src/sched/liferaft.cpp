#include "sched/liferaft.h"

#include <cstdio>

namespace jaws::sched {

LifeRaftScheduler::LifeRaftScheduler(const CostConstants& cost,
                                     const cache::BufferCache* cache, double alpha)
    : probe_(cache != nullptr ? std::make_unique<CacheResidencyProbe>(*cache) : nullptr),
      manager_(cost, probe_.get(), alpha) {}

std::string LifeRaftScheduler::name() const {
    char buf[48];
    std::snprintf(buf, sizeof buf, "LifeRaft(a=%.2f)", manager_.alpha());
    return buf;
}

void LifeRaftScheduler::on_query_visible(const workload::Query& query, util::SimTime now) {
    split_.clear();
    preprocess(query, now, split_);
    for (const SubQuery& sub : split_) manager_.enqueue(sub);
}

void LifeRaftScheduler::on_residency_changed(const storage::AtomId& atom) {
    manager_.on_residency_changed(atom);
}

void LifeRaftScheduler::next_batch(util::SimTime now, Batch& out) {
    (void)now;
    out.clear();
    const auto best = manager_.pick_best_atom();
    if (best) out.add_drained(manager_, *best);
}

}  // namespace jaws::sched
