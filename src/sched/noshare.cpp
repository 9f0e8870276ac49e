#include "sched/noshare.h"

namespace jaws::sched {

void NoShareScheduler::on_query_visible(const workload::Query& query, util::SimTime now) {
    fifo_.emplace_back(&query, now);
    pending_subqueries_ += query.footprint.size();
}

void NoShareScheduler::next_batch(util::SimTime now, Batch& out) {
    (void)now;
    out.clear();
    if (fifo_.empty()) return;
    const auto [query, visible] = fifo_.front();
    fifo_.pop_front();
    pending_subqueries_ -= query->footprint.size();
    preprocess(*query, visible, out.subqueries);
    for (std::size_t i = 0; i < out.subqueries.size(); ++i)
        out.items.push_back(BatchItem{out.subqueries[i].atom, i, 1});
}

}  // namespace jaws::sched
