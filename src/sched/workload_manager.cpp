#include "sched/workload_manager.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>

#include "util/contracts.h"

namespace jaws::sched {

WorkloadManager::WorkloadManager(const CostConstants& cost, const ResidencyProbe* probe,
                                 double alpha)
    : cost_(cost), probe_(probe), alpha_(alpha) {
    if (cost_.atoms_per_step == 0) cost_.atoms_per_step = 1;
}

std::uint32_t WorkloadManager::Slab::acquire() {
    std::uint32_t i = free_;
    if (i != kNil) {
        free_ = (*this)[i].next;
    } else {
        i = blocks_.emplace_back();
    }
    (*this)[i].next = kNil;
    ++in_use_;
    return i;
}

void WorkloadManager::Slab::release(std::uint32_t first, std::uint32_t last,
                                    std::size_t blocks) noexcept {
    (*this)[last].next = free_;
    free_ = first;
    in_use_ -= blocks;
}

bool WorkloadManager::Slab::free_list_intact() const {
    std::vector<bool> seen(blocks_.size(), false);
    std::size_t free = 0;
    for (std::uint32_t i = free_; i != kNil; i = (*this)[i].next) {
        if (i >= blocks_.size() || seen[i]) return false;
        seen[i] = true;
        ++free;
    }
    return free + in_use_ == blocks_.size();
}

double WorkloadManager::probe_phi(const storage::AtomId& atom) const {
    return (probe_ != nullptr && probe_->resident(atom)) ? 0.0 : 1.0;
}

WorkloadManager::Slot WorkloadManager::open_queue(const storage::AtomId& atom) {
    Slot slot;
    if (free_queues_.empty()) {
        slot = queues_.emplace_back();
    } else {
        slot = free_queues_.back();
        free_queues_.pop_back();
    }
    AtomQueue& q = queues_[slot];
    q.atom = atom.key();
    q.phi = probe_phi(atom);
    queue_index_.insert(atom.key().value(), slot);
    ++pending_atoms_;
    return slot;
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
    agg.utility_sum = 0.0;
    agg.key_sum = 0.0;
    spare_steps_.push_back(std::move(node));
}

void WorkloadManager::index_insert(Slot slot) {
    AtomQueue& q = queues_[slot];
    const std::uint32_t t = step_of(q);
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
    agg.members.push_back(Member{q.atom, slot});
    index_add(slot, agg);
}

void WorkloadManager::index_rerank(Slot slot) {
    AtomQueue& q = queues_[slot];
    const auto it = steps_.find(step_of(q));
    assert(it != steps_.end());
    StepAgg& agg = it->second;
    if (agg.members.size() == 1) {
        // The step's only atom: restart the sums from exactly 0.0, as if the
        // aggregate were dropped and re-created, rather than carrying the
        // rounding residue of (sum - old) into the new sum.
        agg.utility_sum = 0.0;
        agg.key_sum = 0.0;
    } else {
        agg.utility_sum -= q.utility;
        agg.key_sum -= q.key;
    }
    index_add(slot, agg);
}

void WorkloadManager::index_add(Slot slot, StepAgg& agg) {
    AtomQueue& q = queues_[slot];
    q.utility = compute_utility(q);
    q.key = compute_key(q);
    agg.utility_sum += q.utility;
    agg.key_sum += q.key;
    // Push the new rank; the queue's previous entry goes stale.
    const bool top_stale = !ranking_.empty() && ranking_.front().stamp == q.stamp;
    q.stamp = ++stamps_;
    ranking_.push_back(RankEntry{-q.key, q.atom, q.stamp, slot});
    std::push_heap(ranking_.begin(), ranking_.end(), ranks_after);
    trim_ranking(top_stale);
}

void WorkloadManager::index_erase(const AtomQueue& q) {
    const auto it = steps_.find(step_of(q));
    assert(it != steps_.end());
    StepAgg& agg = it->second;
    agg.utility_sum -= q.utility;
    agg.key_sum -= q.key;
    Member& hole = agg.members[q.member];
    hole = agg.members.back();
    queues_[hole.slot].member = q.member;
    agg.members.pop_back();
    if (agg.members.empty()) retire_step(it);
}

void WorkloadManager::trim_ranking(bool top_stale) {
    if (ranking_.size() > 2 * pending_atoms_) {
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
    if (fresh) slot = open_queue(sub.atom);
    AtomQueue& q = queues_[slot];
    if (fresh) q.oldest = sub.enqueue_time;
    if (sub.deadline < q.min_deadline) {
        if (q.min_deadline != util::SimTime::max())
            deadlines_.erase({q.min_deadline, sub.atom.key()});
        q.min_deadline = sub.deadline;
        deadlines_.emplace(q.min_deadline, sub.atom.key());
    }
    const std::size_t fill = q.count % kBlockSubqueries;
    if (fill == 0) {  // the tail block is full (or there is none yet)
        const std::uint32_t block = slab_.acquire();
        if (q.tail == kNil)
            q.head = block;
        else
            slab_[q.tail].next = block;
        q.tail = block;
    }
    slab_[q.tail].subs[fill] = sub;
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
    index_erase(q);
    if (q.min_deadline != util::SimTime::max())
        deadlines_.erase({q.min_deadline, atom.key()});
    std::size_t left = q.count;
    for (std::uint32_t block = q.head; block != kNil; block = slab_[block].next) {
        const std::size_t n = std::min(left, kBlockSubqueries);
        const auto& subs = slab_[block].subs;
        out.insert(out.end(), subs.begin(), subs.begin() + static_cast<std::ptrdiff_t>(n));
        left -= n;
    }
    slab_.release(q.head, q.tail, (q.count + kBlockSubqueries - 1) / kBlockSubqueries);
    total_positions_ -= q.positions;
    total_subqueries_ -= q.count;
    const bool top_stale = ranking_.front().stamp == q.stamp;
    // Free the slot (stamp 0 retires its ranking entries) for the next
    // queue that opens.
    q = AtomQueue{};
    queue_index_.erase(atom.key().value());
    free_queues_.push_back(slot);
    --pending_atoms_;
    trim_ranking(top_stale);
    JAWS_AUDIT((++audit_tick_ & 63) == 0 && audit());
}

void WorkloadManager::on_residency_changed(const storage::AtomId& atom) {
    const Slot slot = slot_of(atom);
    if (slot == util::SlotIndex::kNone) return;
    queues_[slot].phi = probe_phi(atom);
    index_rerank(slot);
}

std::optional<storage::AtomId> WorkloadManager::pick_best_atom() const {
    if (ranking_.empty()) return std::nullopt;
    return storage::AtomId::from_key(ranking_.front().atom);
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
    // jaws-lint: allow(float-equality) -- exact-identity fast path only: a
    // missed match merely rebuilds the index (correct either way).
    if (alpha == alpha_) return;
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
    open.reserve(pending_atoms_);
    for (Slot s = 0; s < queues_.size(); ++s)
        if (queues_[s].count > 0) open.emplace_back(queues_[s].atom, s);
    std::sort(open.begin(), open.end());
    for (const auto& [atom, slot] : open) index_insert(slot);
    JAWS_AUDIT(audit());
}

bool WorkloadManager::audit() const {
    bool ok = true;
    const auto check = [&](bool cond, const char* expr, const char* msg) {
        if (!cond) {
            ok = false;
            util::contract_violation(__FILE__, __LINE__, expr, msg);
        }
    };
    // The incremental step aggregates accumulate floating-point sums in
    // insertion order; re-deriving them in sorted order is only equal up to
    // rounding, so aggregate comparisons use a relative tolerance.
    const auto close = [](double a, double b) {
        return std::abs(a - b) <= 1e-9 * (1.0 + std::abs(a) + std::abs(b));
    };

    // Queue slots: the free list names every free slot once, the index maps
    // each open queue's atom to its slot and nothing else.
    std::vector<bool> free(queues_.size(), false);
    for (const Slot b : free_queues_) {
        check(b < queues_.size() && !free[b] && queues_[b].count == 0 &&
                  queues_[b].stamp == 0,
              "free slot listed once and empty",
              "WorkloadManager: queue free list corrupt");
        if (b < queues_.size()) free[b] = true;
    }
    check(queue_index_.audit() && queue_index_.size() == pending_atoms_ &&
              pending_atoms_ + free_queues_.size() == queues_.size(),
          "one index entry per open queue",
          "WorkloadManager: atom index size out of sync with the queue slots");

    std::uint64_t positions = 0;
    std::size_t subqueries = 0;
    std::map<std::uint32_t, std::pair<double, std::size_t>> step_sums;  // (U_t sum, atoms)
    std::map<std::uint32_t, double> step_key_sums;
    std::size_t deadlined = 0;
    // Brute-force best of the ranking: the smallest (-key, atom key).
    std::optional<std::pair<double, storage::AtomKey>> best;
    std::size_t blocks = 0;
    for (Slot slot = 0; slot < queues_.size(); ++slot) {
        if (free[slot]) continue;
        const AtomQueue& q = queues_[slot];
        const storage::AtomId atom = storage::AtomId::from_key(q.atom);
        check(q.count > 0 && q.head != kNil, "no empty atom queue is retained",
              "WorkloadManager: empty workload queue left open");
        check(slot_of(atom) == slot, "index maps the queue's atom to its slot",
              "WorkloadManager: atom index out of sync with the queue slots");
        std::uint64_t queue_positions = 0;
        util::SimTime oldest = q.head == kNil ? util::SimTime::zero()
                                              : slab_[q.head].subs[0].enqueue_time;
        util::SimTime min_deadline = util::SimTime::max();
        std::size_t length = 0;
        std::size_t chain = 0;
        std::uint32_t last = kNil;
        for (std::uint32_t b = q.head; b != kNil && length < q.count; b = slab_[b].next) {
            for (std::size_t i = 0; i < kBlockSubqueries && length < q.count; ++i, ++length) {
                const SubQuery& sub = slab_[b].subs[i];
                check(sub.atom == atom, "queued sub-query targets its queue's atom",
                      "WorkloadManager: sub-query threaded into another atom's queue");
                queue_positions += sub.positions;
                oldest = std::min(oldest, sub.enqueue_time);
                min_deadline = std::min(min_deadline, sub.deadline);
            }
            last = b;
            ++chain;
        }
        check(length == q.count && last == q.tail &&
                  chain == (q.count + kBlockSubqueries - 1) / kBlockSubqueries &&
                  (last == kNil || slab_[last].next == kNil),
              "queue list matches count and tail",
              "WorkloadManager: atom queue list broken or miscounted");
        blocks += chain;
        check(q.positions == queue_positions, "cached positions re-derive",
              "WorkloadManager: per-atom position count out of sync");
        check(q.oldest == oldest, "cached oldest re-derives",
              "WorkloadManager: per-atom oldest enqueue time out of sync");
        check(q.min_deadline == min_deadline, "cached min deadline re-derives",
              "WorkloadManager: per-atom deadline cache out of sync");
        // jaws-lint: allow(float-equality) -- phi is exactly 0.0 or 1.0 on
        // both sides; a mismatch is a residency flip that never reached
        // on_residency_changed().
        check(q.phi == probe_phi(atom), "cached phi equals the probe",
              "WorkloadManager: residency flip not reported (stale phi)");
        check(close(q.utility, compute_utility(q)), "cached U_t re-derives",
              "WorkloadManager: cached utility out of sync with Eq. 1");
        check(close(q.key, compute_key(q)), "cached key re-derives",
              "WorkloadManager: cached ranking key out of sync with Eq. 2");
        const std::pair rank(-q.key, atom.key());
        if (!best || rank < *best) best = rank;
        const auto step = steps_.find(atom.timestep);
        check(step != steps_.end() && q.member < step->second.members.size() &&
                  step->second.members[q.member].slot == slot,
              "member entry points back at the queue",
              "WorkloadManager: atom missing from its step's member list");
        positions += queue_positions;
        subqueries += q.count;
        auto& sums = step_sums[atom.timestep];
        sums.first += q.utility;
        ++sums.second;
        step_key_sums[atom.timestep] += q.key;
        if (min_deadline != util::SimTime::max()) {
            ++deadlined;
            check(deadlines_.count({min_deadline, atom.key()}) == 1,
                  "deadline index entry present",
                  "WorkloadManager: deadlined atom missing from the index");
        }
    }
    check(positions == total_positions_, "total positions re-derive",
          "WorkloadManager: global position total out of sync");
    check(subqueries == total_subqueries_, "total sub-queries re-derive",
          "WorkloadManager: global sub-query total out of sync");
    // Slab: every block in use sits on exactly one queue list, and every
    // other block on the free list.
    check(blocks == slab_.in_use(), "blocks in use == blocks on queue lists",
          "WorkloadManager: slab block leaked or shared between queues");
    check(slab_.free_list_intact(), "slab free list intact",
          "WorkloadManager: slab free list corrupt");
    // Ranking heap: a valid heap, bounded by compaction, with exactly one
    // live entry per pending atom at its current key, and a live top that
    // is the brute-force best.
    check(std::is_heap(ranking_.begin(), ranking_.end(), ranks_after), "ranking is a heap",
          "WorkloadManager: ranking heap order violated");
    check(ranking_.size() <= 2 * pending_atoms_, "|ranking| <= 2 * pending atoms",
          "WorkloadManager: stale ranking entries not compacted");
    std::size_t live_entries = 0;
    for (const RankEntry& e : ranking_) {
        if (e.slot >= queues_.size()) {
            check(false, "ranking entry names a queue slot",
                  "WorkloadManager: ranking entry past the queue slots");
            continue;
        }
        if (!live(e)) continue;
        ++live_entries;
        const AtomQueue& q = queues_[e.slot];
        check(q.atom == e.atom && close(e.neg_key, -q.key),
              "live entry names its queue at the current key",
              "WorkloadManager: live ranking entry carries a stale key");
    }
    check(live_entries == pending_atoms_, "one live ranking entry per atom",
          "WorkloadManager: live ranking entries out of sync with the queues");
    check(ranking_.empty() == (pending_atoms_ == 0) &&
              (ranking_.empty() || (live(ranking_.front()) &&
                                    ranking_.front().atom == best->second)),
          "live top is the brute-force best",
          "WorkloadManager: ranking top is stale or not the best atom");
    check(deadlines_.size() == deadlined, "one deadline entry per deadlined atom",
          "WorkloadManager: deadline index size out of sync");
    check(steps_.size() == step_sums.size(), "one aggregate per pending step",
          "WorkloadManager: stale per-step aggregate retained");
    for (const auto& [t, agg] : steps_) {
        const auto sums = step_sums.find(t);
        if (sums == step_sums.end()) continue;  // size mismatch reported above
        check(agg.members.size() == sums->second.second, "step atom count re-derives",
              "WorkloadManager: per-step atom count out of sync");
        for (std::size_t i = 0; i < agg.members.size(); ++i) {
            const Member& m = agg.members[i];
            check(m.slot < queues_.size() && !free[m.slot] &&
                      queues_[m.slot].atom == m.atom && queues_[m.slot].member == i,
                  "member names its own queue",
                  "WorkloadManager: step member list out of sync with the queues");
        }
        check(close(agg.utility_sum, sums->second.first),
              "step utility sum re-derives",
              "WorkloadManager: per-step utility aggregate out of sync");
        check(close(agg.key_sum, step_key_sums[t]), "step key sum re-derives",
              "WorkloadManager: per-step key aggregate out of sync");
    }
    return ok;
}

}  // namespace jaws::sched
