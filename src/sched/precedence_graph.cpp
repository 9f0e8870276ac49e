#include "sched/precedence_graph.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "sched/alignment.h"
#include "util/contracts.h"

namespace jaws::sched {

namespace {

/// Whether two sorted step sets share a step.
bool share_a_step(const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        if (a[i] == b[j]) return true;
        if (a[i] < b[j])
            ++i;
        else
            ++j;
    }
    return false;
}

}  // namespace

// --- Contracted --------------------------------------------------------------

void PrecedenceGraph::Contracted::reset(std::size_t slots) {
    parent_.resize(slots);
    std::iota(parent_.begin(), parent_.end(), Slot{0});
    size_.assign(slots, 1);
    head_.assign(slots, kNoEdge);
    tail_.resize(slots);
    target_.clear();
    next_.clear();
    mark_.resize(slots, 0);  // stale stamps are all below the next search's
}

PrecedenceGraph::Slot PrecedenceGraph::Contracted::find(Slot s) {
    while (parent_[s] != s) {
        parent_[s] = parent_[parent_[s]];
        s = parent_[s];
    }
    return s;
}

PrecedenceGraph::Slot PrecedenceGraph::Contracted::unite(Slot a, Slot b) {
    a = find(a);
    b = find(b);
    if (a == b) return a;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
    if (head_[b] != kNoEdge) {
        if (head_[a] == kNoEdge)
            head_[a] = head_[b];
        else
            next_[tail_[a]] = head_[b];
        tail_[a] = tail_[b];
    }
    return a;
}

void PrecedenceGraph::Contracted::add_edge(Slot from, Slot to) {
    const auto e = static_cast<std::uint32_t>(target_.size());
    target_.push_back(to);
    next_.push_back(kNoEdge);
    if (head_[from] == kNoEdge)
        head_[from] = e;
    else
        next_[tail_[from]] = e;
    tail_[from] = e;
}

bool PrecedenceGraph::Contracted::acyclic(const util::SlotMap<Node>& slots) {
    indegree_.assign(parent_.size(), 0);
    stack_.clear();
    std::size_t components = 0;
    for (Slot s = 0; s < slots.slots(); ++s) {
        if (slots[s].state == QueryState::kDone || find(s) != s) continue;
        ++components;
        for (std::uint32_t e = head_[s]; e != kNoEdge; e = next_[e])
            if (const Slot t = find(target_[e]); t != s) ++indegree_[t];
    }
    for (Slot s = 0; s < slots.slots(); ++s)
        if (slots[s].state != QueryState::kDone && find(s) == s && indegree_[s] == 0)
            stack_.push_back(s);
    std::size_t sorted = 0;
    while (!stack_.empty()) {
        const Slot c = stack_.back();
        stack_.pop_back();
        ++sorted;
        for (std::uint32_t e = head_[c]; e != kNoEdge; e = next_[e])
            if (const Slot t = find(target_[e]); t != c && --indegree_[t] == 0)
                stack_.push_back(t);
    }
    return sorted == components;
}

bool PrecedenceGraph::Contracted::closes_cycle(Slot nl, std::span<const Slot> admit) {
    stamp_ += 2;
    const std::uint64_t in_set = stamp_;
    const std::uint64_t seen = stamp_ + 1;
    roots_.clear();
    const auto enter = [&](Slot s) {
        const Slot r = find(s);
        if (mark_[r] == in_set) return;
        mark_[r] = in_set;
        roots_.push_back(r);
    };
    enter(nl);
    for (const Slot c : admit) enter(c);

    // The merged set's out-neighbours outside it seed the search; an edge
    // between two of its members is a self-loop of the merge.
    stack_.clear();
    for (const Slot r : roots_) {
        for (std::uint32_t e = head_[r]; e != kNoEdge; e = next_[e]) {
            const Slot t = find(target_[e]);
            if (mark_[t] == in_set || mark_[t] == seen) continue;
            mark_[t] = seen;
            stack_.push_back(t);
        }
    }
    while (!stack_.empty()) {
        const Slot c = stack_.back();
        stack_.pop_back();
        for (std::uint32_t e = head_[c]; e != kNoEdge; e = next_[e]) {
            const Slot t = find(target_[e]);
            if (mark_[t] == in_set) return true;  // back into the merged set
            if (mark_[t] == seen) continue;       // includes c's own self-loops
            mark_[t] = seen;
            stack_.push_back(t);
        }
    }
    return false;
}

void PrecedenceGraph::Contracted::merge(Slot nl, std::span<const Slot> admit) {
    for (const Slot c : admit) nl = unite(nl, c);
}

// --- PrecedenceGraph ---------------------------------------------------------

PrecedenceGraph::Slot PrecedenceGraph::slot_of(workload::QueryId id) const {
    return slots_.find(id);
}

QueryState PrecedenceGraph::state(workload::QueryId id) const {
    const Slot s = slot_of(id);
    return s == kNoSlot ? QueryState::kDone : slots_[s].state;
}

const workload::Query& PrecedenceGraph::query(workload::QueryId id) const {
    const Slot s = slot_of(id);
    assert(s != kNoSlot);
    return *slots_[s].query;
}

int PrecedenceGraph::gating_number(workload::QueryId id) const {
    const Slot s = slot_of(id);
    return s == kNoSlot ? 0 : slots_[s].gating_number;
}

std::size_t PrecedenceGraph::partner_count(workload::QueryId id) const {
    const Slot s = slot_of(id);
    return s == kNoSlot ? 0 : slots_[s].partners.size();
}

PrecedenceGraph::Slot PrecedenceGraph::allocate(const workload::Query& query,
                                                workload::JobId job) {
    const Slot s = slots_.insert(query.id);
    Node& node = slots_[s];
    node.query = &query;
    node.job = job;
    node.seq = query.seq_in_job;
    node.state = QueryState::kWait;
    node.gating_number = 0;
    node.visible_tick = 0;
    return s;
}

void PrecedenceGraph::add_job(const workload::Job& job) {
    JobEntry& entry = jobs_[job.id];
    entry = JobEntry{};
    entry.job = &job;
    entry.remaining = job.queries.size();
    for (const auto& q : job.queries) {
        assert(q.seq_in_job == entry.chain.size());
        entry.chain.push_back(allocate(q, job.id));
    }
    if (!gating_enabled_ || job.type != workload::JobType::kOrdered ||
        job.queries.size() < 2)
        return;
    for (const auto& q : job.queries) entry.steps.push_back(q.timestep);
    std::sort(entry.steps.begin(), entry.steps.end());
    entry.steps.erase(std::unique(entry.steps.begin(), entry.steps.end()), entry.steps.end());

    // Pairwise dynamic programs against every active ordered job, processed
    // in descending alignment-score order (the paper's greedy merge).
    struct Candidate {
        std::uint32_t score;
        const JobEntry* other;
        Alignment alignment;
    };
    std::vector<Candidate> candidates;
    for (const auto& [other_id, other] : jobs_) {
        if (other_id == job.id || other.remaining == 0) continue;
        if (other.job->type != workload::JobType::kOrdered) continue;
        if (other.job->queries.size() < 2) continue;
        ++stats_.alignments_run;
        // Queries on different steps never share data: disjoint step sets
        // score 0 without the dynamic program.
        if (!share_a_step(entry.steps, other.steps)) continue;
        Alignment alignment = align_jobs(job, *other.job);
        if (alignment.score == 0) continue;
        candidates.push_back(Candidate{alignment.score, &other, std::move(alignment)});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) { return a.score > b.score; });

    for (const auto& c : candidates) {
        bool admitted_any = false;
        for (const AlignedPair& pair : c.alignment.pairs) {
            const Slot nl = entry.chain[pair.a_seq];
            const Slot nk = c.other->chain[pair.b_seq];
            if (nl == kNoSlot || nk == kNoSlot) continue;
            // Too late to gate a query that is already runnable or running.
            if (slots_[nk].state == QueryState::kQueue) continue;
            if (try_admit_edge(entry, nl, nk)) admitted_any = true;
        }
        if (admitted_any) recompute_gating_numbers(*c.other);
    }
    recompute_gating_numbers(entry);
    contracted_built_ = false;
    JAWS_AUDIT(audit());
}

bool PrecedenceGraph::edge_allowed_between(const JobEntry& mine, const Node& a,
                                           const Node& b) const {
    // Existing edges between job(a) and job(b) must not be crossed or
    // duplicated (one gating edge per query per job pair) by (a, b).
    for (const Slot s : mine.chain) {
        if (s == kNoSlot) continue;
        const Node& n = slots_[s];
        for (const Slot p : n.partners) {
            const Node& pn = slots_[p];
            if (pn.job != b.job) continue;
            if (n.seq == a.seq || pn.seq == b.seq) return false;
            const bool crosses =
                (n.seq < a.seq && pn.seq > b.seq) || (n.seq > a.seq && pn.seq < b.seq);
            if (crosses) return false;
        }
    }
    return true;
}

void PrecedenceGraph::contract(Contracted& graph) const {
    graph.reset(slots_.slots());
    for (Slot s = 0; s < slots_.slots(); ++s)
        for (const Slot p : slots_[s].partners)
            if (p > s) graph.unite(s, p);
    // Consecutive live queries of each ordered chain; self-loops drop.
    for (const auto& [id, entry] : jobs_) {
        if (entry.job->type != workload::JobType::kOrdered) continue;
        Slot prev = kNoSlot;
        for (const Slot cur : entry.chain) {
            if (cur == kNoSlot) continue;
            if (prev != kNoSlot) {
                const Slot u = graph.find(prev);
                if (u != graph.find(cur)) graph.add_edge(u, cur);
            }
            prev = cur;
        }
    }
}

bool PrecedenceGraph::would_close_cycle(Slot nl) {
    if (!contracted_built_) {
        contract(contracted_);
        contracted_built_ = true;
        if (may_cycle_) may_cycle_ = !contracted_.acyclic(slots_);
    }
    // A cycle left by a prune runs through two or more old components. The
    // new job's queries have no partners (nothing is admitted while the cycle
    // stands), so a merge takes in one of those components at most and the
    // cycle survives it: refuse, as the whole-graph check would.
    if (may_cycle_) return true;
    return contracted_.closes_cycle(nl, admit_);
}

bool PrecedenceGraph::try_admit_edge(const JobEntry& mine, Slot nl, Slot nk) {
    Node& l = slots_[nl];
    const Node& k = slots_[nk];
    if (l.job == k.job) return false;
    if (std::find(l.partners.begin(), l.partners.end(), nk) != l.partners.end())
        return false;  // already gated together

    // Transitive inheritance (Fig. 4 line 2): the new query inherits all
    // gating edges incident to its partner.
    admit_.assign(1, nk);
    for (const Slot p : k.partners) {
        const Node& pn = slots_[p];
        if (pn.job == l.job || pn.state == QueryState::kQueue) continue;
        admit_.push_back(p);
    }

    // Fig. 4 lines 3-7: the gating number nl would carry — edged queries in
    // its own prefix plus one past the deepest gated partner of the prefix.
    int max_gat_num = 0;
    int prefix_edges = 0;
    for (std::uint32_t seq = 0; seq < l.seq; ++seq) {
        const Slot s = mine.chain[seq];
        if (s == kNoSlot || slots_[s].partners.empty()) continue;
        ++prefix_edges;
        for (const Slot p : slots_[s].partners)
            max_gat_num = std::max(max_gat_num, slots_[p].gating_number + 1);
    }
    max_gat_num = std::max(max_gat_num, prefix_edges);

    // Fig. 4 lines 8-13: validate every inherited edge. The paper uses the
    // gating-number comparison as a cheap deadlock proxy; we track it as a
    // statistic but rely on the exact cycle check below, which admits every
    // feasible edge the proxy would conservatively reject.
    for (const Slot c : admit_) {
        if (slots_[c].gating_number < max_gat_num) ++stats_.edges_rejected_gating_number;
        if (!edge_allowed_between(mine, l, slots_[c])) {
            ++stats_.edges_rejected_crossing;
            return false;
        }
    }

    // Exact deadlock check over the contracted constraint graph.
    if (would_close_cycle(nl)) {
        ++stats_.edges_rejected_deadlock;
        return false;
    }

    for (const Slot c : admit_) {
        l.partners.push_back(c);
        slots_[c].partners.push_back(nl);
        ++stats_.edges_admitted;
    }
    contracted_.merge(nl, admit_);
    return true;
}

void PrecedenceGraph::recompute_gating_numbers(const JobEntry& entry) {
    int count = 0;
    for (const Slot s : entry.chain) {
        if (s == kNoSlot) continue;
        Node& node = slots_[s];
        if (!node.partners.empty()) ++count;
        node.gating_number = count;
    }
}

bool PrecedenceGraph::gating_satisfied(const Node& node) const {
    // DONE partners are detached, so every partner listed is live.
    for (const Slot p : node.partners)
        if (slots_[p].state == QueryState::kWait) return false;
    return true;
}

std::vector<workload::QueryId> PrecedenceGraph::promote_from(std::span<const Slot> seeds) {
    std::vector<workload::QueryId> promoted;
    for (const Slot s : seeds) {
        Node& node = slots_[s];
        if (node.state != QueryState::kReady || !gating_satisfied(node)) continue;
        node.state = QueryState::kQueue;
        --ready_count_;
        promoted.push_back(node.query->id);
    }
    return promoted;
}

std::vector<workload::QueryId> PrecedenceGraph::on_query_visible(workload::QueryId id) {
    const Slot s = slot_of(id);
    assert(s != kNoSlot && slots_[s].state == QueryState::kWait);
    Node& node = slots_[s];
    node.state = QueryState::kReady;
    node.visible_tick = ++tick_;
    ++ready_count_;

    // This transition can complete the gate of the node itself and of each of
    // its partners (promoting one node cannot un-block a third, so one pass
    // over this neighbourhood reaches the fixpoint).
    std::vector<Slot> seeds{s};
    seeds.insert(seeds.end(), node.partners.begin(), node.partners.end());
    return promote_from(seeds);
}

std::vector<workload::QueryId> PrecedenceGraph::on_query_done(workload::QueryId id) {
    const Slot s = slot_of(id);
    if (s == kNoSlot) return {};
    Node& node = slots_[s];
    assert(node.state == QueryState::kQueue);
    // Detach from partners (a DONE partner satisfies their gates anyway) and
    // prune the vertex, as the paper prunes completed queries.
    for (const Slot p : node.partners) std::erase(slots_[p].partners, s);
    if (node.partners.size() >= 2) may_cycle_ = true;  // its component may split
    node.partners.clear();
    node.state = QueryState::kDone;
    auto it = jobs_.find(node.job);
    if (it != jobs_.end()) {
        it->second.chain[node.seq] = kNoSlot;
        if (--it->second.remaining == 0) jobs_.erase(it);
    }
    slots_.erase(id);
    // Pruning cannot newly satisfy a gate (DONE already satisfied it), so no
    // promotions result; kept as a hook point for symmetry.
    JAWS_AUDIT(audit());
    return {};
}

std::vector<workload::QueryId> PrecedenceGraph::force_promote_oldest_ready() {
    Node* oldest = nullptr;
    for (Slot s = 0; s < slots_.slots(); ++s) {
        Node& node = slots_[s];
        if (node.state != QueryState::kReady) continue;
        const bool older = oldest == nullptr || node.visible_tick < oldest->visible_tick ||
                           (node.visible_tick == oldest->visible_tick &&
                            node.query->id < oldest->query->id);
        if (older) oldest = &node;
    }
    if (oldest == nullptr) return {};
    oldest->state = QueryState::kQueue;
    --ready_count_;
    ++stats_.forced_promotions;
    return {oldest->query->id};
}

bool PrecedenceGraph::check_invariants() const {
    if (!slots_.audit()) return false;
    std::size_t ready = 0;
    for (Slot s = 0; s < slots_.slots(); ++s) {
        const Node& node = slots_[s];
        if (!slots_.live(s)) {
            if (node.state != QueryState::kDone || !node.partners.empty())
                return false;  // a free slot is DONE and keeps no edges
            continue;
        }
        if (node.state == QueryState::kDone) return false;  // a live query is not DONE
        if (node.state == QueryState::kReady) ++ready;
        const auto job = jobs_.find(node.job);
        if (job == jobs_.end() || node.seq >= job->second.chain.size() ||
            job->second.chain[node.seq] != s)
            return false;  // chain disagrees
        for (const Slot p : node.partners) {
            if (p >= slots_.slots() || slots_[p].state == QueryState::kDone)
                return false;  // dangling edge
            const Node& pn = slots_[p];
            if (pn.job == node.job) return false;  // intra-job gating edge
            if (std::find(pn.partners.begin(), pn.partners.end(), s) == pn.partners.end())
                return false;  // asymmetric edge
            // One edge per query per job pair.
            const auto to_that_job =
                std::count_if(node.partners.begin(), node.partners.end(),
                              [&](Slot o) { return slots_[o].job == pn.job; });
            if (to_that_job > 1) return false;
        }
    }
    if (ready != ready_count_) return false;
    for (const auto& [id, entry] : jobs_) {
        std::size_t alive = 0;
        for (std::size_t seq = 0; seq < entry.chain.size(); ++seq) {
            const Slot s = entry.chain[seq];
            if (s == kNoSlot) continue;
            if (s >= slots_.slots() || slots_[s].state == QueryState::kDone ||
                slots_[s].query != &entry.job->queries[seq])
                return false;
            ++alive;
        }
        if (alive != entry.remaining) return false;
    }
    // Deadlock freedom of the current graph, contracted anew.
    Contracted graph;
    contract(graph);
    return graph.acyclic(slots_);
}

bool PrecedenceGraph::audit() const {
    const bool ok = check_invariants();
    if (!ok)
        util::contract_violation(__FILE__, __LINE__, "check_invariants()",
                                 "PrecedenceGraph: gating/precedence invariants "
                                 "violated (state counts, slot index, edge symmetry, "
                                 "one-edge-per-job-pair, or acyclicity)");
    return ok;
}

}  // namespace jaws::sched
