#include "sched/workload_manager.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>

#include "util/contracts.h"

namespace jaws::sched {

WorkloadManager::WorkloadManager(const CostConstants& cost, const ResidencyProbe* probe,
                                 double alpha)
    : cost_(cost), probe_(probe), alpha_(alpha) {
    if (cost_.atoms_per_step == 0) cost_.atoms_per_step = 1;
}

double WorkloadManager::probe_phi(const storage::AtomId& atom) const {
    return (probe_ != nullptr && probe_->resident(atom)) ? 0.0 : 1.0;
}

double WorkloadManager::compute_utility(const AtomQueue& q) const {
    if (q.positions == 0) return 0.0;
    const double w = static_cast<double>(q.positions);
    return w / (cost_.t_b_ms * q.phi + cost_.t_m_ms * w);
}

double WorkloadManager::compute_key(const AtomQueue& q) const {
    // Static part of U_e: U_t*(1-alpha) + (now - oldest)*alpha ranks the same
    // as U_t*(1-alpha) - oldest*alpha at any fixed `now`.
    return q.utility * (1.0 - alpha_) - q.oldest.millis() * alpha_;
}

namespace {
/// Ranking-heap order: `a` sits below `b` when it ranks after it, so the top
/// is the smallest (-key, atom key).
constexpr auto ranks_after = [](const auto& a, const auto& b) {
    return std::pair(b.neg_key, b.atom) < std::pair(a.neg_key, a.atom);
};
}  // namespace

void WorkloadManager::retire_step(StepMap::iterator it) {
    StepMap::node_type node = steps_.extract(it);
    StepAgg& agg = node.mapped();
    agg.members.clear();  // keeps its storage for the next step that opens
    agg.restart();
    spare_steps_.push_back(std::move(node));
}

void WorkloadManager::index_insert(Slot slot) {
    AtomQueue& q = queues_[slot];
    const std::uint32_t t = step_of(slot);
    auto step = steps_.find(t);
    if (step == steps_.end()) {
        if (spare_steps_.empty()) {
            step = steps_.try_emplace(t).first;
        } else {
            // Reuse an emptied step's node, member list storage and all.
            StepMap::node_type node = std::move(spare_steps_.back());
            spare_steps_.pop_back();
            node.key() = t;
            step = steps_.insert(std::move(node)).position;
        }
    }
    StepAgg& agg = step->second;
    q.member = static_cast<std::uint32_t>(agg.members.size());
    agg.members.push_back(Member{atom_of(slot), slot});
    index_add(slot, agg);
}

void WorkloadManager::index_rerank(Slot slot) {
    AtomQueue& q = queues_[slot];
    const auto it = steps_.find(step_of(slot));
    assert(it != steps_.end());
    StepAgg& agg = it->second;
    if (agg.members.size() == 1) {
        // The step's only atom: restart the sums from exactly 0.0, as if the
        // aggregate were dropped and re-created, rather than carrying the
        // rounding residue of (sum - old) into the new sum.
        agg.restart();
    } else {
        agg.utility_sum -= q.utility;
        agg.key_sum -= q.key;
        agg.note_update();
    }
    index_add(slot, agg);
}

void WorkloadManager::index_add(Slot slot, StepAgg& agg) {
    AtomQueue& q = queues_[slot];
    q.utility = compute_utility(q);
    q.key = compute_key(q);
    agg.utility_sum += q.utility;
    agg.key_sum += q.key;
    agg.note_update();
    if (!ranked_) return;
    // Push the new rank; the queue's previous entry goes stale.
    const bool top_stale = !ranking_.empty() && ranking_.front().stamp == q.stamp;
    q.stamp = ++stamps_;
    ranking_.push_back(RankEntry{-q.key, atom_of(slot), q.stamp, slot});
    std::push_heap(ranking_.begin(), ranking_.end(), ranks_after);
    trim_ranking(top_stale);
}

void WorkloadManager::index_erase(Slot slot) {
    const AtomQueue& q = queues_[slot];
    const auto it = steps_.find(step_of(slot));
    assert(it != steps_.end());
    StepAgg& agg = it->second;
    agg.utility_sum -= q.utility;
    agg.key_sum -= q.key;
    agg.note_update();
    Member& hole = agg.members[q.member];
    hole = agg.members.back();
    queues_[hole.slot].member = q.member;
    agg.members.pop_back();
    if (agg.members.empty()) retire_step(it);
}

void WorkloadManager::trim_ranking(bool top_stale) {
    if (ranking_.size() > 2 * queues_.size()) {
        std::erase_if(ranking_, [this](const RankEntry& e) { return !live(e); });
        std::make_heap(ranking_.begin(), ranking_.end(), ranks_after);
        return;
    }
    if (!top_stale) return;
    while (!ranking_.empty() && !live(ranking_.front())) {
        std::pop_heap(ranking_.begin(), ranking_.end(), ranks_after);
        ranking_.pop_back();
    }
}

void WorkloadManager::enqueue(const SubQuery& sub) {
    Slot slot = slot_of(sub.atom);
    const bool fresh = slot == util::SlotIndex::kNone;
    if (fresh) slot = queues_.insert(sub.atom.key().value());
    AtomQueue& q = queues_[slot];
    if (fresh) {
        q.phi = probe_phi(sub.atom);
        q.oldest = sub.enqueue_time;
    }
    if (sub.deadline < q.min_deadline) {
        if (q.min_deadline != util::SimTime::max())
            deadlines_.erase({q.min_deadline, sub.atom.key()});
        q.min_deadline = sub.deadline;
        deadlines_.emplace(q.min_deadline, sub.atom.key());
    }
    const std::size_t fill = q.count % kBlockSubqueries;
    // preprocess stamps each sub-query with the event time, so times never
    // fall within a queue and `oldest` is the head sub-query's time.
    JAWS_INVARIANT(fresh || slab_[q.tail].subs[(q.count - 1) % kBlockSubqueries].enqueue_time <=
                                sub.enqueue_time,
                   "WorkloadManager: enqueue time falls within an atom queue");
    if (fill == 0) {  // the tail block is full (or there is none yet)
        const std::uint32_t block = slab_.acquire();
        slab_[block].next = kNil;
        if (q.tail == kNil)
            q.head = block;
        else
            slab_[q.tail].next = block;
        q.tail = block;
    }
    slab_[q.tail].subs[fill] =
        Pending{sub.query, sub.positions, sub.supports, sub.enqueue_time, sub.deadline};
    ++q.count;
    q.positions += sub.positions;
    total_positions_ += sub.positions;
    ++total_subqueries_;
    if (fresh)
        index_insert(slot);
    else
        index_rerank(slot);
    JAWS_AUDIT((++audit_tick_ & 63) == 0 && audit());
}

void WorkloadManager::drain_atom(const storage::AtomId& atom, std::vector<SubQuery>& out) {
    const Slot slot = slot_of(atom);
    if (slot == util::SlotIndex::kNone) return;
    AtomQueue& q = queues_[slot];
    index_erase(slot);
    if (q.min_deadline != util::SimTime::max())
        deadlines_.erase({q.min_deadline, atom.key()});
    const std::size_t first = out.size();
    out.resize(first + q.count);
    SubQuery* to = out.data() + first;
    std::size_t left = q.count;
    for (std::uint32_t block = q.head; block != kNil;) {
        const Block& b = slab_[block];
        const std::size_t n = std::min(left, kBlockSubqueries);
        for (std::size_t i = 0; i < n; ++i, ++to) {
            const Pending& p = b.subs[i];
            *to = SubQuery{p.query, atom, p.positions, p.supports, p.enqueue_time, p.deadline};
        }
        left -= n;
        slab_.release(block);  // keeps `b` intact for the read of its next
        block = b.next;
    }
    total_positions_ -= q.positions;
    total_subqueries_ -= q.count;
    const bool top_stale = ranked_ && ranking_.front().stamp == q.stamp;
    // Reset the slot (stamp 0 retires its ranking entries) for the next
    // queue that opens in it.
    q = AtomQueue{};
    queues_.erase(atom.key().value());
    if (ranked_) trim_ranking(top_stale);
    JAWS_AUDIT((++audit_tick_ & 63) == 0 && audit());
}

void WorkloadManager::on_residency_changed(const storage::AtomId& atom) {
    const Slot slot = slot_of(atom);
    if (slot == util::SlotIndex::kNone) return;
    queues_[slot].phi = probe_phi(atom);
    index_rerank(slot);
}

std::optional<storage::AtomId> WorkloadManager::pick_best_atom() {
    if (!ranked_) build_ranking();
    if (ranking_.empty()) return std::nullopt;
    return storage::AtomId::from_key(ranking_.front().atom);
}

void WorkloadManager::build_ranking() {
    // The heap's top is the unique smallest (-key, atom key) over the open
    // queues however the heap was built, so building it here picks exactly
    // what maintaining it since the first enqueue would have.
    ranked_ = true;
    ranking_.reserve(queues_.size());
    for (Slot s = 0; s < queues_.slots(); ++s) {
        if (!queues_.live(s)) continue;
        AtomQueue& q = queues_[s];
        q.stamp = ++stamps_;
        ranking_.push_back(RankEntry{-q.key, atom_of(s), q.stamp, s});
    }
    std::make_heap(ranking_.begin(), ranking_.end(), ranks_after);
}

void WorkloadManager::pick_two_level_batch(std::size_t k, util::SimTime now,
                                           std::vector<storage::AtomId>& out) const {
    out.clear();
    if (steps_.empty()) return;
    // Coarse level: the time step with the highest mean aged throughput,
    // where the mean is over *all* atoms of the step (atoms without pending
    // work contribute zero), i.e. total contention mass / atoms_per_step.
    // Each pending atom's U_e is its static key plus now*alpha, so the exact
    // step sum is key_sum + pending_count * now * alpha.
    const StepAgg* best = nullptr;
    double best_sum = 0.0;
    const double now_term = now.millis() * alpha_;
    for (const auto& [t, agg] : steps_) {
        const double sum = agg.key_sum + static_cast<double>(agg.members.size()) * now_term;
        if (best == nullptr || sum > best_sum) {
            best_sum = sum;
            best = &agg;
        }
    }
    // Fine level: up to k atoms of that step with U_t above the step's mean
    // U_t over all atoms — a deliberately low bar (paper Sec. V: "the impact
    // beyond 50 is marginal because only atoms with workload throughput
    // greater than the mean value are considered") — in Morton order. Atoms
    // rank by (-U_t, atom key); only the first k can be taken, so only they
    // are selected and sorted.
    const double mean_ut = best->utility_sum / static_cast<double>(cost_.atoms_per_step);
    std::vector<Member>& top = pick_scratch_;
    top.resize(std::min(k, best->members.size()));
    const auto rank = [this](const Member& m) {
        return std::pair(-queues_[m.slot].utility, m.atom);
    };
    std::ranges::partial_sort_copy(best->members, top, std::less{}, rank, rank);
    for (const Member& m : top) {
        if (queues_[m.slot].utility < mean_ut && !out.empty()) break;  // below mean: stop
        out.push_back(storage::AtomId::from_key(m.atom));
    }
    std::sort(out.begin(), out.end(), [](const storage::AtomId& a,
                                         const storage::AtomId& b) {
        return a.morton < b.morton;
    });
}

std::optional<std::pair<storage::AtomId, util::SimTime>>
WorkloadManager::earliest_deadline_atom() const {
    if (deadlines_.empty()) return std::nullopt;
    const auto& [deadline, atom_key] = *deadlines_.begin();
    return std::make_pair(storage::AtomId::from_key(atom_key), deadline);
}

double WorkloadManager::atom_utility(const storage::AtomId& atom) const {
    const Slot slot = slot_of(atom);
    return slot == util::SlotIndex::kNone ? 0.0 : queues_[slot].utility;
}

double WorkloadManager::timestep_mean_utility(std::uint32_t t) const {
    const auto it = steps_.find(t);
    if (it == steps_.end()) return 0.0;
    return it->second.utility_sum / static_cast<double>(it->second.members.size());
}

void WorkloadManager::set_alpha(double alpha) {
    assert(alpha >= 0.0 && alpha <= 1.0);
    // Exact-identity fast path only: a missed match merely rebuilds the
    // index (correct either way).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wfloat-equal"
    if (alpha == alpha_) return;
#pragma GCC diagnostic pop
    alpha_ = alpha;
    rebuild_index();
}

void WorkloadManager::rebuild_index() {
    ranking_.clear();
    while (!steps_.empty()) retire_step(steps_.begin());
    // Rebuild in atom-key order: StepAgg sums doubles, and floating-point
    // accumulation order must not depend on the slot layout (which follows
    // the drain history) for the aggregates to be reproducible.
    std::vector<std::pair<storage::AtomKey, Slot>> open;
    open.reserve(queues_.size());
    for (Slot s = 0; s < queues_.slots(); ++s)
        if (queues_.live(s)) open.emplace_back(atom_of(s), s);
    std::sort(open.begin(), open.end());
    for (const auto& [atom, slot] : open) index_insert(slot);
    JAWS_AUDIT(audit());
}

bool WorkloadManager::audit() const {
    // Cached per-queue values agree with a fresh computation up to a
    // relative tolerance.
    const auto close = [](double a, double b) {
        return std::abs(a - b) <= 1e-9 * (1.0 + std::abs(a) + std::abs(b));
    };
    // A running step sum keeps the rounding residue of every value it held
    // since its restart, however small the sum is now (LifeRaft_2 on the
    // 400-job Fig. 10 trace left step 3 at one 0.04 utility, 1.8e-9 off,
    // after 211 615 updates with sums up to 36 435). Two recursive sums of
    // the same terms differ by at most the sum of their residue bounds.
    const auto agree = [](double a, double a_residue, double b, double b_residue) {
        return std::abs(a - b) <=
               std::numeric_limits<double>::epsilon() * (a_residue + b_residue);
    };

    bool ok = queues_.audit();
    ok &= slab_.audit();
    std::uint64_t positions = 0;
    std::size_t subqueries = 0;
    std::map<std::uint32_t, StepAgg> fresh_steps;  // re-summed in slot order
    std::size_t deadlined = 0;
    // Brute-force best of the ranking: the smallest (-key, atom key).
    std::optional<std::pair<double, storage::AtomKey>> best;
    // Records do not name their atom, so a block on two queue lists would
    // lend its records to both: each block may be reached only once.
    std::vector<bool> reached(slab_.slots(), false);
    std::size_t blocks = 0;  // distinct blocks reached
    for (Slot slot = 0; slot < queues_.slots(); ++slot) {
        const AtomQueue& q = queues_[slot];
        if (!queues_.live(slot)) {
            ok &= JAWS_AUDIT_CHECK(q.count == 0 && q.head == kNil && q.stamp == 0,
                                   "WorkloadManager: drained queue slot not reset");
            continue;
        }
        const storage::AtomId atom = storage::AtomId::from_key(atom_of(slot));
        ok &= JAWS_AUDIT_CHECK(q.count > 0 && q.head != kNil,
                               "WorkloadManager: empty workload queue left open");
        std::uint64_t queue_positions = 0;
        util::SimTime oldest = q.head == kNil ? util::SimTime::zero()
                                              : slab_[q.head].subs[0].enqueue_time;
        util::SimTime min_deadline = util::SimTime::max();
        std::size_t length = 0;
        std::size_t chain = 0;
        std::uint32_t last = kNil;
        for (std::uint32_t b = q.head; b != kNil && length < q.count; b = slab_[b].next) {
            const bool in_use = JAWS_AUDIT_CHECK(
                b < slab_.slots() && slab_.live(b),
                "WorkloadManager: atom queue list runs into a free or unissued slab block");
            ok &= in_use;
            if (!in_use) break;
            ok &= JAWS_AUDIT_CHECK(!reached[b],
                                   "WorkloadManager: slab block reached twice (on two queue "
                                   "lists, or a list loops)");
            if (!reached[b]) ++blocks;
            reached[b] = true;
            for (std::size_t i = 0; i < kBlockSubqueries && length < q.count; ++i, ++length) {
                const Pending& sub = slab_[b].subs[i];
                queue_positions += sub.positions;
                oldest = std::min(oldest, sub.enqueue_time);
                min_deadline = std::min(min_deadline, sub.deadline);
            }
            last = b;
            ++chain;
        }
        ok &= JAWS_AUDIT_CHECK(length == q.count && last == q.tail &&
                                   chain == (q.count + kBlockSubqueries - 1) / kBlockSubqueries &&
                                   (last == kNil || slab_[last].next == kNil),
                               "WorkloadManager: atom queue list broken or miscounted");
        ok &= JAWS_AUDIT_CHECK(q.positions == queue_positions,
                               "WorkloadManager: per-atom position count out of sync");
        ok &= JAWS_AUDIT_CHECK(q.oldest == oldest,
                               "WorkloadManager: per-atom oldest enqueue time out of sync");
        ok &= JAWS_AUDIT_CHECK(q.min_deadline == min_deadline,
                               "WorkloadManager: per-atom deadline cache out of sync");
        // phi is exactly 0.0 or 1.0 on both sides; a mismatch is a
        // residency flip that never reached on_residency_changed().
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wfloat-equal"
        ok &= JAWS_AUDIT_CHECK(q.phi == probe_phi(atom),
                               "WorkloadManager: residency flip not reported (stale phi)");
#pragma GCC diagnostic pop
        ok &= JAWS_AUDIT_CHECK(close(q.utility, compute_utility(q)),
                               "WorkloadManager: cached utility out of sync with Eq. 1");
        ok &= JAWS_AUDIT_CHECK(close(q.key, compute_key(q)),
                               "WorkloadManager: cached ranking key out of sync with Eq. 2");
        const std::pair rank(-q.key, atom.key());
        if (!best || rank < *best) best = rank;
        const auto step = steps_.find(atom.timestep);
        ok &= JAWS_AUDIT_CHECK(step != steps_.end() &&
                                   q.member < step->second.members.size() &&
                                   step->second.members[q.member].slot == slot,
                               "WorkloadManager: atom missing from its step's member list");
        positions += queue_positions;
        subqueries += q.count;
        StepAgg& fresh = fresh_steps[atom.timestep];
        fresh.utility_sum += q.utility;
        fresh.key_sum += q.key;
        fresh.note_update();
        fresh.members.push_back(Member{atom.key(), slot});
        if (min_deadline != util::SimTime::max()) {
            ++deadlined;
            ok &= JAWS_AUDIT_CHECK(deadlines_.count({min_deadline, atom.key()}) == 1,
                                   "WorkloadManager: deadlined atom missing from the index");
        }
    }
    ok &= JAWS_AUDIT_CHECK(positions == total_positions_,
                           "WorkloadManager: global position total out of sync");
    ok &= JAWS_AUDIT_CHECK(subqueries == total_subqueries_,
                           "WorkloadManager: global sub-query total out of sync");
    // Slab: every block in use sits on a queue list.
    ok &= JAWS_AUDIT_CHECK(blocks == slab_.size(), "WorkloadManager: slab block leaked");
    if (!ranked_) {
        // No single-atom pick yet: nothing ranks the queues.
        ok &= JAWS_AUDIT_CHECK(ranking_.empty(),
                               "WorkloadManager: ranking kept before the first single-atom pick");
    } else {
        // Ranking heap: a valid heap, bounded by compaction, with exactly one
        // live entry per pending atom at its current key, and a live top that
        // is the brute-force best.
        ok &= JAWS_AUDIT_CHECK(std::is_heap(ranking_.begin(), ranking_.end(), ranks_after),
                               "WorkloadManager: ranking heap order violated");
        ok &= JAWS_AUDIT_CHECK(ranking_.size() <= 2 * queues_.size(),
                               "WorkloadManager: stale ranking entries not compacted");
        std::size_t live_entries = 0;
        for (const RankEntry& e : ranking_) {
            const bool in_map =
                JAWS_AUDIT_CHECK(e.slot < queues_.slots(),
                                 "WorkloadManager: ranking entry past the queue slots");
            ok &= in_map;
            if (!in_map || !live(e)) continue;
            ++live_entries;
            ok &= JAWS_AUDIT_CHECK(
                atom_of(e.slot) == e.atom && close(e.neg_key, -queues_[e.slot].key),
                "WorkloadManager: live ranking entry carries a stale key");
        }
        ok &= JAWS_AUDIT_CHECK(live_entries == queues_.size(),
                               "WorkloadManager: live ranking entries out of sync with the queues");
        ok &= JAWS_AUDIT_CHECK(ranking_.empty() == queues_.empty() &&
                                   (ranking_.empty() || (live(ranking_.front()) &&
                                                         ranking_.front().atom == best->second)),
                               "WorkloadManager: ranking top is stale or not the best atom");
    }
    ok &= JAWS_AUDIT_CHECK(deadlines_.size() == deadlined,
                           "WorkloadManager: deadline index size out of sync");
    ok &= JAWS_AUDIT_CHECK(steps_.size() == fresh_steps.size(),
                           "WorkloadManager: stale per-step aggregate retained");
    for (const auto& [t, agg] : steps_) {
        const auto it = fresh_steps.find(t);
        if (it == fresh_steps.end()) continue;  // size mismatch reported above
        const StepAgg& fresh = it->second;
        ok &= JAWS_AUDIT_CHECK(agg.members.size() == fresh.members.size(),
                               "WorkloadManager: per-step atom count out of sync");
        for (std::size_t i = 0; i < agg.members.size(); ++i) {
            const Member& m = agg.members[i];
            ok &= JAWS_AUDIT_CHECK(m.slot < queues_.slots() && queues_.live(m.slot) &&
                                       atom_of(m.slot) == m.atom && queues_[m.slot].member == i,
                                   "WorkloadManager: step member list out of sync with the queues");
        }
        ok &= JAWS_AUDIT_CHECK(agree(agg.utility_sum, agg.utility_residue, fresh.utility_sum,
                                     fresh.utility_residue),
                               "WorkloadManager: per-step utility aggregate out of sync");
        ok &= JAWS_AUDIT_CHECK(
            agree(agg.key_sum, agg.key_residue, fresh.key_sum, fresh.key_residue),
            "WorkloadManager: per-step key aggregate out of sync");
    }
    return ok;
}

}  // namespace jaws::sched
