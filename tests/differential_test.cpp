// Differential property tests for the descriptor hot path (tests/proptest.h).
//
// The LRU-K policy and the workload manager rank through indexes that must
// reproduce, bit for bit, the simpler algorithms they replaced. Those
// algorithms live on here as test-local oracles:
//
//   * ScanLruK — LRU-K choosing its victim by a full scan for the argmin of
//     (kth_ref, recent, atom) over the residents;
//   * SetIndexManager — the workload manager's three node-based sets: the
//     global (-key, atom key) ranking, and per time step a (-U_t, atom key)
//     set beside U_t / key sums that are dropped when the step empties;
//   * decode_encode_supports — pre-processing's support search by decoding
//     each atom's coordinate and re-encoding its x-1, y-1 and z-1
//     neighbours, searched over the whole footprint;
//   * ReferenceGraph — the precedence graph's admission path before node
//     slots and the per-call contracted graph: hash-mapped nodes, a
//     hash-map union-find and a DFS over the whole contracted graph for
//     every candidate edge, and a nested-vector alignment table.
//
// Random streams drive each oracle and the production class side by side:
// every victim, every pick, every drained queue, every per-step mean and
// every query's gating state must match exactly, and the production class
// must audit clean at every step (the precedence graph: whenever the
// reference's graph is acyclic, see compare_gating).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cache/buffer_cache.h"
#include "cache/lru_k.h"
#include "proptest.h"
#include "sched/alignment.h"
#include "sched/precedence_graph.h"
#include "sched/subquery.h"
#include "sched/workload_manager.h"
#include "util/contracts.h"
#include "util/morton.h"

namespace jaws {
namespace {

using proptest::Config;
using proptest::Gen;
using proptest::Outcome;

/// Counts contract violations instead of aborting, so a failing audit is a
/// property failure the shrinker can minimise.
class CountViolations {
  public:
    CountViolations()
        : previous_(util::set_contract_handler([](const char*, int, const char*,
                                                  const char*) {})) {}
    ~CountViolations() { util::set_contract_handler(previous_); }

  private:
    util::ContractHandler previous_;
};

std::string atom_str(const storage::AtomId& a) {
    return "(" + std::to_string(a.timestep) + "," + std::to_string(a.morton) + ")";
}

std::string atom_str(const std::optional<storage::AtomId>& a) {
    return a ? atom_str(*a) : "none";
}

// --- LRU-K: indexed victim vs the full scan ---------------------------------

/// LRU-K picking its victim by scanning every resident.
class ScanLruK final : public cache::ReplacementPolicy {
  public:
    ScanLruK(unsigned k, std::size_t retained) : k_(k == 0 ? 1 : k), retained_cap_(retained) {}

    void on_insert(const storage::AtomId& atom) override {
        resident_.insert(atom);
        touch(atom);
    }
    void on_access(const storage::AtomId& atom) override { touch(atom); }
    storage::AtomId pick_victim() override {
        const storage::AtomId* victim = nullptr;
        std::uint64_t best_k = std::numeric_limits<std::uint64_t>::max();
        std::uint64_t best_recent = std::numeric_limits<std::uint64_t>::max();
        for (const auto& atom : resident_) {
            const std::deque<std::uint64_t>& refs = history_.at(atom);
            const std::uint64_t kd = refs.size() < k_ ? 0 : refs.back();
            const std::uint64_t recent = refs.front();
            const bool better =
                victim == nullptr || kd < best_k ||
                (kd == best_k &&
                 (recent < best_recent || (recent == best_recent && atom < *victim)));
            if (better) {
                best_k = kd;
                best_recent = recent;
                victim = &atom;
            }
        }
        return *victim;
    }
    void on_evict(const storage::AtomId& atom) override {
        resident_.erase(atom);
        retained_fifo_.push_back(atom);
        while (retained_fifo_.size() > retained_cap_) {
            const storage::AtomId old = retained_fifo_.front();
            retained_fifo_.pop_front();
            if (!resident_.contains(old)) history_.erase(old);
        }
    }
    std::string name() const override { return "scan LRU-" + std::to_string(k_); }

  private:
    void touch(const storage::AtomId& atom) {
        std::deque<std::uint64_t>& refs = history_[atom];
        refs.push_front(++tick_);
        while (refs.size() > k_) refs.pop_back();
    }

    unsigned k_;
    std::size_t retained_cap_;
    std::uint64_t tick_ = 0;
    std::map<storage::AtomId, std::deque<std::uint64_t>> history_;
    std::set<storage::AtomId> resident_;
    std::deque<storage::AtomId> retained_fifo_;
};

/// Look `atom` up in both caches and insert it on a miss; "" while the two
/// agree on the hit and on the victim.
std::string access_both(cache::BufferCache& indexed, cache::BufferCache& scan,
                        const storage::AtomId& atom) {
    const bool hit = indexed.lookup(atom);
    if (hit != scan.lookup(atom)) return "hit/miss diverged on " + atom_str(atom);
    if (hit) return "";
    const auto a = indexed.insert(atom);
    const auto b = scan.insert(atom);
    if (a != b)
        return "miss on " + atom_str(atom) + " evicted " + atom_str(a) + ", scan evicts " +
               atom_str(b);
    return "";
}

std::string lru_k_stream(Gen& g, std::size_t capacity, unsigned k, std::size_t retained) {
    const CountViolations quiet;
    cache::BufferCache indexed(capacity, std::make_unique<cache::LruKPolicy>(k, retained));
    cache::BufferCache scan(capacity, std::make_unique<ScanLruK>(k, retained));
    // A hot set smaller than the cache and a cold range three times its size:
    // hits, K-th references, evictions and re-admissions with (or, past the
    // retained bound, without) history all occur.
    const std::uint64_t hot = std::max<std::uint64_t>(1, capacity / 2);
    const std::uint64_t cold = 3 * capacity + 2;
    const int ops = static_cast<int>(g.below(400)) + 1;
    for (int i = 0; i < ops; ++i) {
        const std::string at = "op " + std::to_string(i) + ": ";
        const bool is_hot = g.below(3) != 0;
        const storage::AtomId atom{static_cast<std::uint32_t>(g.below(2)),
                                   is_hot ? g.below(hot) : hot + g.below(cold)};
        const std::uint64_t op = g.below(64);
        if (op == 0) {
            indexed.clear();
            scan.clear();
        } else if (op < 8) {
            const auto a = indexed.insert(atom);
            const auto b = scan.insert(atom);
            if (a != b)
                return at + "direct insert of " + atom_str(atom) + " evicted " + atom_str(a) +
                       ", scan evicts " + atom_str(b);
        } else if (const std::string diff = access_both(indexed, scan, atom); !diff.empty()) {
            return at + diff;
        }
        if (!indexed.audit()) return at + "indexed LRU-K failed its audit";
    }
    return "";
}

/// A few hot atoms, each hit at least 50 times between two evictions, so
/// the victim heap holds entries far below their atoms' ranks; cold misses
/// force the evictions, and clear() runs while the heap still holds entries
/// of atoms evicted by an earlier clear() and since re-admitted.
std::string hot_lru_k_stream(Gen& g, std::size_t capacity, unsigned k, std::size_t retained) {
    const CountViolations quiet;
    cache::BufferCache indexed(capacity, std::make_unique<cache::LruKPolicy>(k, retained));
    cache::BufferCache scan(capacity, std::make_unique<ScanLruK>(k, retained));
    const std::uint64_t hot = g.below(std::min<std::uint64_t>(3, capacity - 1)) + 1;
    std::uint64_t next_cold = hot;
    const int rounds = static_cast<int>(g.below(40)) + 1;
    for (int r = 0; r < rounds; ++r) {
        const std::string at = "round " + std::to_string(r) + ": ";
        // Each hot atom's 50-79 hits, shuffled together.
        std::vector<std::uint64_t> hits;
        for (std::uint64_t a = 0; a < hot; ++a) hits.insert(hits.end(), 50 + g.below(30), a);
        for (std::size_t i = hits.size(); i > 1; --i) std::swap(hits[i - 1], hits[g.below(i)]);
        for (const std::uint64_t atom : hits)
            if (const std::string diff = access_both(indexed, scan, {0, atom}); !diff.empty())
                return at + diff;
        // Cold misses: each evicts once the cache is full. A cold atom is
        // sometimes re-admitted with the history of an earlier admission.
        for (std::uint64_t c = g.below(3) + 1; c > 0; --c) {
            const std::uint64_t cold = g.below(4) == 0 && next_cold > hot
                                           ? hot + g.below(next_cold - hot)
                                           : next_cold++;
            if (const std::string diff = access_both(indexed, scan, {0, cold}); !diff.empty())
                return at + diff;
        }
        if (g.below(4) == 0) {
            indexed.clear();
            scan.clear();
        }
        if (!indexed.audit()) return at + "indexed LRU-K failed its audit";
    }
    return "";
}

TEST(Differential, LruKVictimMatchesScan) {
    for (const std::size_t capacity : {1u, 3u, 17u, 256u}) {
        for (const unsigned k : {1u, 2u, 3u}) {
            for (const std::size_t retained : {0u, 4u, 4096u}) {
                SCOPED_TRACE("capacity " + std::to_string(capacity) + " k " +
                             std::to_string(k) + " retained " + std::to_string(retained));
                Config config;
                config.cases = capacity >= 256 ? 6 : 12;
                const Outcome o = proptest::check(config, [&](Gen& g) {
                    return lru_k_stream(g, capacity, k, retained);
                });
                EXPECT_TRUE(o.ok) << o.message;
            }
        }
    }
    // Hit-heavy: the heap's keys lag far behind, so nearly every victim
    // pick re-ranks. Small caches keep dead entries below the compaction
    // bound across clear().
    for (const std::size_t capacity : {2u, 4u, 8u}) {
        for (const unsigned k : {1u, 2u, 3u}) {
            for (const std::size_t retained : {0u, 4096u}) {
                SCOPED_TRACE("hot: capacity " + std::to_string(capacity) + " k " +
                             std::to_string(k) + " retained " + std::to_string(retained));
                Config config;
                config.cases = 12;
                const Outcome o = proptest::check(config, [&](Gen& g) {
                    return hot_lru_k_stream(g, capacity, k, retained);
                });
                EXPECT_TRUE(o.ok) << o.message;
            }
        }
    }
}

// --- WorkloadManager: lazy heap + member lists vs the three sets ------------

/// The workload manager's ranking as three node-based sets.
class SetIndexManager {
  public:
    SetIndexManager(const sched::CostConstants& cost, const sched::ResidencyProbe* probe,
                    double alpha)
        : cost_(cost), probe_(probe), alpha_(alpha) {}

    void enqueue(const sched::SubQuery& sub) {
        Queue& q = queues_[sub.atom];
        if (!q.items.empty()) index_erase(sub.atom, q);
        if (q.items.empty()) q.oldest = sub.enqueue_time;
        q.items.push_back(sub.query);
        q.positions += sub.positions;
        index_insert(sub.atom, q);
    }

    std::vector<workload::QueryId> drain_atom(const storage::AtomId& atom) {
        const auto it = queues_.find(atom);
        if (it == queues_.end()) return {};
        index_erase(atom, it->second);
        std::vector<workload::QueryId> items = std::move(it->second.items);
        queues_.erase(it);
        return items;
    }

    void on_residency_changed(const storage::AtomId& atom) {
        const auto it = queues_.find(atom);
        if (it == queues_.end()) return;
        index_erase(atom, it->second);
        index_insert(atom, it->second);
    }

    std::optional<storage::AtomId> pick_best_atom() const {
        if (order_.empty()) return std::nullopt;
        return storage::AtomId::from_key(order_.begin()->second);
    }

    std::vector<storage::AtomId> pick_two_level_batch(std::size_t k, util::SimTime now) const {
        if (steps_.empty()) return {};
        const StepAgg* best = nullptr;
        double best_sum = 0.0;
        const double now_term = now.millis() * alpha_;
        for (const auto& [t, agg] : steps_) {
            const double sum = agg.key_sum + static_cast<double>(agg.atoms) * now_term;
            if (best == nullptr || sum > best_sum) {
                best_sum = sum;
                best = &agg;
            }
        }
        const double mean_ut = best->utility_sum / static_cast<double>(cost_.atoms_per_step);
        std::vector<storage::AtomId> batch;
        for (const auto& [neg_ut, atom_key] : best->by_utility) {
            if (batch.size() >= k) break;
            if (-neg_ut < mean_ut && !batch.empty()) break;
            batch.push_back(storage::AtomId::from_key(atom_key));
        }
        std::sort(batch.begin(), batch.end(),
                  [](const storage::AtomId& a, const storage::AtomId& b) {
                      return a.morton < b.morton;
                  });
        return batch;
    }

    double timestep_mean_utility(std::uint32_t t) const {
        const auto it = steps_.find(t);
        if (it == steps_.end()) return 0.0;
        return it->second.utility_sum / static_cast<double>(it->second.atoms);
    }

    void set_alpha(double alpha) {
        if (alpha == alpha_) return;
        alpha_ = alpha;
        order_.clear();
        steps_.clear();
        for (auto& [atom, q] : queues_) index_insert(atom, q);  // atom-key order
    }

  private:
    struct Queue {
        std::vector<workload::QueryId> items;
        std::uint64_t positions = 0;
        util::SimTime oldest;
        double utility = 0.0;
        double key = 0.0;
    };
    struct StepAgg {
        double utility_sum = 0.0;
        double key_sum = 0.0;
        std::size_t atoms = 0;
        std::set<std::pair<double, storage::AtomKey>> by_utility;
    };

    void index_insert(const storage::AtomId& atom, Queue& q) {
        const double w = static_cast<double>(q.positions);
        const double phi = (probe_ != nullptr && probe_->resident(atom)) ? 0.0 : 1.0;
        q.utility = q.positions == 0 ? 0.0 : w / (cost_.t_b_ms * phi + cost_.t_m_ms * w);
        q.key = q.utility * (1.0 - alpha_) - q.oldest.millis() * alpha_;
        order_.emplace(-q.key, atom.key());
        StepAgg& agg = steps_[atom.timestep];
        agg.utility_sum += q.utility;
        agg.key_sum += q.key;
        ++agg.atoms;
        agg.by_utility.emplace(-q.utility, atom.key());
    }

    void index_erase(const storage::AtomId& atom, const Queue& q) {
        order_.erase({-q.key, atom.key()});
        const auto it = steps_.find(atom.timestep);
        it->second.utility_sum -= q.utility;
        it->second.key_sum -= q.key;
        --it->second.atoms;
        it->second.by_utility.erase({-q.utility, atom.key()});
        if (it->second.atoms == 0) steps_.erase(it);
    }

    sched::CostConstants cost_;
    const sched::ResidencyProbe* probe_;
    double alpha_;
    std::map<storage::AtomId, Queue> queues_;
    std::set<std::pair<double, storage::AtomKey>> order_;
    std::map<std::uint32_t, StepAgg> steps_;
};

class FlipProbe final : public sched::ResidencyProbe {
  public:
    bool resident(const storage::AtomId& a) const override { return cached.contains(a); }
    std::set<storage::AtomId> cached;
};

std::string show(const std::vector<storage::AtomId>& atoms) {
    std::string out = "[";
    for (const storage::AtomId& a : atoms) out += atom_str(a);
    return out + "]";
}

/// Every observable of the two managers, compared exactly. The single-atom
/// pick is compared only once `single_atom` picks have begun: the first one
/// builds the manager's ranking.
std::string compare(sched::WorkloadManager& m, const SetIndexManager& o, std::uint32_t steps,
                    util::SimTime now, bool single_atom) {
    if (single_atom && m.pick_best_atom() != o.pick_best_atom())
        return "pick_best_atom " + atom_str(m.pick_best_atom()) + " vs sets " +
               atom_str(o.pick_best_atom());
    for (const std::size_t k : {1u, 15u, 64u}) {
        const auto a = m.pick_two_level_batch(k, now);
        const auto b = o.pick_two_level_batch(k, now);
        if (a != b)
            return "pick_two_level_batch(" + std::to_string(k) + ") " + show(a) +
                   " vs sets " + show(b);
    }
    for (std::uint32_t t = 0; t <= steps; ++t) {
        const double a = m.timestep_mean_utility(t);
        const double b = o.timestep_mean_utility(t);
        if (std::bit_cast<std::uint64_t>(a) != std::bit_cast<std::uint64_t>(b))
            return "timestep_mean_utility(" + std::to_string(t) + ") bits differ";
    }
    return "";
}

/// When a manager stream makes its first single-atom pick.
enum class FirstPick {
    kFirstOp,  ///< From the first op on (the ranking is built at once).
    kLateOp,   ///< From one random op in the stream's second half on.
    kNever,    ///< Never: the two-level pick alone, as under JAWS.
};

std::string manager_stream(Gen& g, FirstPick first) {
    const CountViolations quiet;
    sched::CostConstants cost;
    cost.atoms_per_step = std::uint64_t{1} << g.below(7);  // 1 .. 64
    const double alphas[] = {0.0, 0.25, 0.5, 0.75, 1.0};
    const double alpha = alphas[g.below(5)];
    FlipProbe probe;
    sched::WorkloadManager m(cost, &probe, alpha);
    SetIndexManager o(cost, &probe, alpha);

    // Few atoms per step often leaves a step with a single pending atom (the
    // zero-reset path); wide steps exercise partial ranking past k = 15.
    const auto steps = static_cast<std::uint32_t>(g.below(3) + 1);
    const std::uint64_t width = g.boolean() ? g.below(3) + 1 : g.below(40) + 4;
    const auto pick = [&] {
        return storage::AtomId{static_cast<std::uint32_t>(g.below(steps)), g.below(width)};
    };
    util::SimTime now;
    workload::QueryId next_query = 1;
    const int ops = static_cast<int>(g.below(300)) + 1;
    // Before op `picks_from` the queues see enqueues, drains, residency
    // flips and alpha changes with no single-atom pick, so a late first pick
    // must rank queues opened, re-ranked and re-keyed before it.
    int picks_from = 0;
    if (first == FirstPick::kLateOp)
        picks_from = ops / 2 + static_cast<int>(g.below(static_cast<std::uint64_t>(ops - ops / 2)));
    else if (first == FirstPick::kNever)
        picks_from = ops;
    for (int i = 0; i < ops; ++i) {
        const std::string at = "op " + std::to_string(i) + ": ";
        const bool single_atom = i >= picks_from;
        switch (g.below(10)) {
            case 0:
            case 1:
            case 2:
            case 3:
            case 4: {
                now += util::SimTime::from_millis(static_cast<double>(g.below(50)));
                sched::SubQuery sub;
                sub.query = next_query++;
                sub.atom = pick();
                sub.positions = g.below(5000) + 1;
                sub.enqueue_time = now;
                m.enqueue(sub);
                o.enqueue(sub);
                break;
            }
            case 5:
            case 6: {
                const storage::AtomId atom = pick();
                std::vector<workload::QueryId> drained;
                for (const sched::SubQuery& s : m.drain_atom(atom)) drained.push_back(s.query);
                if (drained != o.drain_atom(atom)) return at + "drain diverged";
                break;
            }
            case 7: {
                const storage::AtomId atom = pick();
                if (!probe.cached.erase(atom)) probe.cached.insert(atom);
                m.on_residency_changed(atom);
                o.on_residency_changed(atom);
                break;
            }
            case 8: {
                const double a = alphas[g.below(5)];
                m.set_alpha(a);
                o.set_alpha(a);
                break;
            }
            default: {
                if (!single_atom) {
                    // JAWS's loop: drain a two-level batch.
                    for (const storage::AtomId& atom : m.pick_two_level_batch(15, now))
                        if (m.drain_atom(atom).size() != o.drain_atom(atom).size())
                            return at + "drain of a two-level batch diverged";
                    break;
                }
                // LifeRaft's loop: drain the best atom.
                const auto best = m.pick_best_atom();
                if (!best) break;
                if (m.drain_atom(*best).size() != o.drain_atom(*best).size())
                    return at + "drain of the best atom diverged";
            }
        }
        if (const std::string diff = compare(m, o, steps, now, single_atom); !diff.empty())
            return at + diff;
        if (!m.audit()) return at + "workload manager failed its audit";
    }
    return "";
}

TEST(Differential, WorkloadManagerMatchesSetIndex) {
    Config config;
    config.cases = 300;
    const Outcome o =
        proptest::check(config, [](Gen& g) { return manager_stream(g, FirstPick::kFirstOp); });
    EXPECT_TRUE(o.ok) << o.message;
}

TEST(Differential, WorkloadManagerRanksAtALateFirstPick) {
    Config config;
    config.cases = 300;
    const Outcome o =
        proptest::check(config, [](Gen& g) { return manager_stream(g, FirstPick::kLateOp); });
    EXPECT_TRUE(o.ok) << o.message;
}

TEST(Differential, WorkloadManagerTwoLevelOnlyNeverRanks) {
    // The audit after every op requires an empty ranking: no enqueue, drain,
    // residency flip or alpha change may rank a queue before a single-atom
    // pick asks for it.
    Config config;
    config.cases = 200;
    const Outcome o =
        proptest::check(config, [](Gen& g) { return manager_stream(g, FirstPick::kNever); });
    EXPECT_TRUE(o.ok) << o.message;
}

// --- preprocess: lane decrement vs decode / re-encode ------------------------

std::vector<std::uint64_t> decode_encode_supports(const workload::Query& query,
                                                  std::uint64_t code) {
    std::vector<std::uint64_t> out;
    const util::Coord3 c = util::morton_decode(code);
    const auto member = [&](std::uint64_t m) {
        return std::any_of(query.footprint.begin(), query.footprint.end(),
                           [m](const workload::AtomRequest& r) { return r.atom.morton == m; });
    };
    if (c.x > 0 && member(util::morton_encode(c.x - 1, c.y, c.z)))
        out.push_back(util::morton_encode(c.x - 1, c.y, c.z));
    if (c.y > 0 && member(util::morton_encode(c.x, c.y - 1, c.z)))
        out.push_back(util::morton_encode(c.x, c.y - 1, c.z));
    if (c.z > 0 && member(util::morton_encode(c.x, c.y, c.z - 1)))
        out.push_back(util::morton_encode(c.x, c.y, c.z - 1));
    return out;
}

std::string preprocess_supports(Gen& g) {
    // A random cloud of atoms in a box anywhere on the 21-bit lattice, dense
    // enough that most atoms have footprint neighbours.
    const std::uint32_t side = static_cast<std::uint32_t>(g.below(6)) + 1;
    const auto corner = [&] { return static_cast<std::uint32_t>(g.below((1u << 21) - side + 1)); };
    const util::Coord3 lo{g.boolean() ? 0 : corner(), g.boolean() ? 0 : corner(),
                          g.boolean() ? 0 : corner()};
    std::set<std::uint64_t> codes;
    const std::uint64_t atoms = g.below(side * side * side) + 1;
    for (std::uint64_t i = 0; i < atoms; ++i)
        codes.insert(util::morton_encode(lo.x + static_cast<std::uint32_t>(g.below(side)),
                                         lo.y + static_cast<std::uint32_t>(g.below(side)),
                                         lo.z + static_cast<std::uint32_t>(g.below(side))));
    workload::Query query;
    query.id = 1;
    for (const std::uint64_t code : codes)
        query.footprint.push_back(workload::AtomRequest{{0, code}, 1});
    const std::vector<sched::SubQuery> subs = sched::preprocess(query, util::SimTime::zero());
    if (subs.size() != codes.size()) return "one sub-query per footprint atom";
    for (const sched::SubQuery& sub : subs) {
        const sched::SupportCodes codes = sched::support_codes(sub.atom, sub.supports);
        const std::vector<std::uint64_t> got(codes.begin(), codes.end());
        if (got != decode_encode_supports(query, sub.atom.morton))
            return "supports of atom " + std::to_string(sub.atom.morton) + " diverged";
    }
    return "";
}

TEST(Differential, PreprocessSupportsMatchDecodeEncode) {
    const Outcome o = proptest::check(Config{}, preprocess_supports);
    EXPECT_TRUE(o.ok) << o.message;
}

// --- PrecedenceGraph: per-call contracted graph vs whole-graph rebuilds ----

/// Union-find over query ids in a hash map, rebuilt for every deadlock check.
class Dsu {
  public:
    workload::QueryId find(workload::QueryId x) {
        auto it = parent_.find(x);
        if (it == parent_.end()) {
            parent_[x] = x;
            return x;
        }
        workload::QueryId root = x;
        while (parent_[root] != root) root = parent_[root];
        while (parent_[x] != root) {
            const workload::QueryId next = parent_[x];
            parent_[x] = root;
            x = next;
        }
        return root;
    }

    void unite(workload::QueryId a, workload::QueryId b) { parent_[find(a)] = find(b); }

  private:
    std::unordered_map<workload::QueryId, workload::QueryId> parent_;
};

/// align_jobs with one heap-allocated row per table row.
sched::Alignment nested_align_jobs(const workload::Job& a, const workload::Job& b) {
    const std::size_t n = a.queries.size();
    const std::size_t m = b.queries.size();
    sched::Alignment out;
    if (n == 0 || m == 0) return out;
    std::vector<std::vector<std::uint32_t>> score(n + 1, std::vector<std::uint32_t>(m + 1, 0));
    for (std::size_t i = 1; i <= n; ++i) {
        for (std::size_t j = 1; j <= m; ++j) {
            const std::uint32_t s =
                sched::queries_share_data(a.queries[i - 1], b.queries[j - 1]) ? 1 : 0;
            score[i][j] = std::max({score[i - 1][j - 1] + s, score[i][j - 1], score[i - 1][j]});
        }
    }
    out.score = score[n][m];
    std::size_t i = n, j = m;
    while (i > 0 && j > 0) {
        const std::uint32_t s =
            sched::queries_share_data(a.queries[i - 1], b.queries[j - 1]) ? 1 : 0;
        if (s == 1 && score[i][j] == score[i - 1][j - 1] + 1) {
            out.pairs.push_back(sched::AlignedPair{static_cast<std::uint32_t>(i - 1),
                                                   static_cast<std::uint32_t>(j - 1)});
            --i;
            --j;
        } else if (score[i][j] == score[i - 1][j]) {
            --i;
        } else if (score[i][j] == score[i][j - 1]) {
            --j;
        } else {
            --i;
            --j;
        }
    }
    std::reverse(out.pairs.begin(), out.pairs.end());
    return out;
}

/// The precedence graph with every deadlock check answered by contracting
/// the whole graph again (hash-map union-find) and searching it for a cycle.
class ReferenceGraph {
  public:
    explicit ReferenceGraph(bool gating_enabled) : gating_enabled_(gating_enabled) {}

    void add_job(const workload::Job& job) {
        jobs_[job.id] = JobEntry{&job, job.queries.size()};
        for (const auto& q : job.queries)
            nodes_.emplace(q.id,
                           Node{q.id, job.id, q.seq_in_job, sched::QueryState::kWait, 0, {}, 0});
        if (!gating_enabled_ || job.type != workload::JobType::kOrdered || job.queries.size() < 2)
            return;
        struct Candidate {
            std::uint32_t score;
            workload::JobId other;
            sched::Alignment alignment;
        };
        std::vector<Candidate> candidates;
        for (const auto& [other_id, other_entry] : jobs_) {
            if (other_id == job.id || other_entry.remaining == 0) continue;
            if (other_entry.job->type != workload::JobType::kOrdered) continue;
            if (other_entry.job->queries.size() < 2) continue;
            sched::Alignment alignment = nested_align_jobs(job, *other_entry.job);
            ++stats_.alignments_run;
            if (alignment.score == 0) continue;
            candidates.push_back(Candidate{alignment.score, other_id, std::move(alignment)});
        }
        std::sort(candidates.begin(), candidates.end(),
                  [](const Candidate& a, const Candidate& b) { return a.score > b.score; });
        for (const auto& c : candidates) {
            const JobEntry& other = jobs_.at(c.other);
            bool admitted_any = false;
            for (const sched::AlignedPair& pair : c.alignment.pairs) {
                Node* nl = find(job.queries[pair.a_seq].id);
                Node* nk = find(other.job->queries[pair.b_seq].id);
                if (nl == nullptr || nk == nullptr) continue;
                if (nk->state == sched::QueryState::kQueue || nk->state == sched::QueryState::kDone)
                    continue;
                if (try_admit_edge(*nl, *nk)) admitted_any = true;
            }
            if (admitted_any) recompute_gating_numbers(c.other);
        }
        recompute_gating_numbers(job.id);
    }

    std::vector<workload::QueryId> on_query_visible(workload::QueryId id) {
        Node* node = find(id);
        node->state = sched::QueryState::kReady;
        node->visible_tick = ++tick_;
        ++ready_count_;
        std::vector<workload::QueryId> seeds{id};
        seeds.insert(seeds.end(), node->partners.begin(), node->partners.end());
        std::vector<workload::QueryId> promoted;
        for (const workload::QueryId s : seeds) {
            Node* n = find(s);
            if (n == nullptr || n->state != sched::QueryState::kReady) continue;
            const bool gated = std::any_of(n->partners.begin(), n->partners.end(), [&](auto p) {
                const Node* pn = find(p);
                return pn != nullptr && pn->state == sched::QueryState::kWait;
            });
            if (gated) continue;
            n->state = sched::QueryState::kQueue;
            --ready_count_;
            promoted.push_back(s);
        }
        return promoted;
    }

    void on_query_done(workload::QueryId id) {
        Node* node = find(id);
        for (const workload::QueryId pid : node->partners) std::erase(find(pid)->partners, id);
        const workload::JobId job_id = node->job;
        nodes_.erase(id);
        auto it = jobs_.find(job_id);
        if (it != jobs_.end() && --it->second.remaining == 0) jobs_.erase(it);
    }

    std::vector<workload::QueryId> force_promote_oldest_ready() {
        Node* oldest = nullptr;
        for (auto& [id, node] : nodes_) {
            if (node.state != sched::QueryState::kReady) continue;
            if (oldest == nullptr || node.visible_tick < oldest->visible_tick ||
                (node.visible_tick == oldest->visible_tick && id < oldest->id))
                oldest = &node;
        }
        if (oldest == nullptr) return {};
        oldest->state = sched::QueryState::kQueue;
        --ready_count_;
        ++stats_.forced_promotions;
        return {oldest->id};
    }

    sched::QueryState state(workload::QueryId id) const {
        const Node* n = find(id);
        return n == nullptr ? sched::QueryState::kDone : n->state;
    }
    int gating_number(workload::QueryId id) const {
        const Node* n = find(id);
        return n == nullptr ? 0 : n->gating_number;
    }
    std::size_t partner_count(workload::QueryId id) const {
        const Node* n = find(id);
        return n == nullptr ? 0 : n->partners.size();
    }
    bool has_ready() const { return ready_count_ > 0; }
    const sched::GatingStats& stats() const { return stats_; }

    /// Whether the contracted constraint graph is acyclic.
    bool acyclic() const {
        if (nodes_.empty()) return true;
        const Node& any = nodes_.begin()->second;
        return !would_deadlock(any, any, {});
    }

    /// Whether pruning `id` splits its gating component into pieces.
    bool prune_splits(workload::QueryId id) const {
        const Node* node = find(id);
        if (node->partners.size() < 2) return false;
        std::unordered_set<workload::QueryId> seen{id, node->partners.front()};
        std::vector<workload::QueryId> stack{node->partners.front()};
        while (!stack.empty()) {
            const workload::QueryId u = stack.back();
            stack.pop_back();
            for (const workload::QueryId v : find(u)->partners)
                if (seen.insert(v).second) stack.push_back(v);
        }
        return !std::all_of(node->partners.begin(), node->partners.end(),
                            [&](auto p) { return seen.contains(p); });
    }

  private:
    struct Node {
        workload::QueryId id = 0;
        workload::JobId job = 0;
        std::uint32_t seq = 0;
        sched::QueryState state = sched::QueryState::kWait;
        std::uint64_t visible_tick = 0;
        std::vector<workload::QueryId> partners;
        int gating_number = 0;
    };
    struct JobEntry {
        const workload::Job* job = nullptr;
        std::size_t remaining = 0;
    };

    Node* find(workload::QueryId id) {
        const auto it = nodes_.find(id);
        return it == nodes_.end() ? nullptr : &it->second;
    }
    const Node* find(workload::QueryId id) const {
        const auto it = nodes_.find(id);
        return it == nodes_.end() ? nullptr : &it->second;
    }

    bool edge_allowed_between(const Node& a, const Node& b, std::size_t* crossing,
                              std::size_t* duplicate) const {
        const JobEntry& ja = jobs_.at(a.job);
        for (const auto& q : ja.job->queries) {
            const Node* n = find(q.id);
            if (n == nullptr) continue;
            for (const workload::QueryId pid : n->partners) {
                const Node* p = find(pid);
                if (p == nullptr || p->job != b.job) continue;
                if (n->seq == a.seq || p->seq == b.seq) {
                    ++*duplicate;
                    return false;
                }
                if ((n->seq < a.seq && p->seq > b.seq) || (n->seq > a.seq && p->seq < b.seq)) {
                    ++*crossing;
                    return false;
                }
            }
        }
        return true;
    }

    bool would_deadlock(const Node& a, const Node& b,
                        const std::vector<workload::QueryId>& extra) const {
        Dsu dsu;
        for (const auto& [id, node] : nodes_)
            for (const workload::QueryId pid : node.partners)
                if (nodes_.contains(pid)) dsu.unite(id, pid);
        dsu.unite(a.id, b.id);
        for (const workload::QueryId pid : extra)
            if (nodes_.contains(pid)) dsu.unite(a.id, pid);
        std::unordered_map<workload::QueryId, std::vector<workload::QueryId>> adjacency;
        for (const auto& [job_id, entry] : jobs_) {
            if (entry.job->type != workload::JobType::kOrdered) continue;
            const Node* prev = nullptr;
            for (const auto& q : entry.job->queries) {
                const Node* cur = find(q.id);
                if (cur == nullptr) continue;
                if (prev != nullptr) {
                    const workload::QueryId u = dsu.find(prev->id);
                    const workload::QueryId v = dsu.find(cur->id);
                    if (u != v) adjacency[u].push_back(v);
                }
                prev = cur;
            }
        }
        std::unordered_map<workload::QueryId, int> color;
        for (const auto& [start, ignored] : adjacency) {
            if (color[start] != 0) continue;
            std::vector<std::pair<workload::QueryId, std::size_t>> stack{{start, 0}};
            color[start] = 1;
            while (!stack.empty()) {
                auto& [u, next] = stack.back();
                const auto it = adjacency.find(u);
                const std::size_t degree = it == adjacency.end() ? 0 : it->second.size();
                if (next >= degree) {
                    color[u] = 2;
                    stack.pop_back();
                    continue;
                }
                const workload::QueryId v = it->second[next++];
                if (color[v] == 1) return true;
                if (color[v] == 0) {
                    color[v] = 1;
                    stack.emplace_back(v, 0);
                }
            }
        }
        return false;
    }

    bool try_admit_edge(Node& nl, Node& nk) {
        if (nl.job == nk.job) return false;
        if (std::find(nl.partners.begin(), nl.partners.end(), nk.id) != nl.partners.end())
            return false;
        std::vector<workload::QueryId> admit{nk.id};
        for (const workload::QueryId pid : nk.partners) {
            const Node* p = find(pid);
            if (p == nullptr || p->job == nl.job) continue;
            if (p->state == sched::QueryState::kQueue || p->state == sched::QueryState::kDone)
                continue;
            admit.push_back(pid);
        }
        int max_gat_num = 0;
        {
            const JobEntry& jl = jobs_.at(nl.job);
            int prefix_edges = 0;
            for (const auto& q : jl.job->queries) {
                if (q.seq_in_job >= nl.seq) break;
                const Node* n = find(q.id);
                if (n == nullptr || n->partners.empty()) continue;
                ++prefix_edges;
                for (const workload::QueryId pid : n->partners) {
                    const Node* p = find(pid);
                    if (p != nullptr) max_gat_num = std::max(max_gat_num, p->gating_number + 1);
                }
            }
            max_gat_num = std::max(max_gat_num, prefix_edges);
        }
        for (const workload::QueryId cid : admit) {
            const Node* c = find(cid);
            if (c->gating_number < max_gat_num) ++stats_.edges_rejected_gating_number;
            std::size_t crossing = 0, duplicate = 0;
            if (!edge_allowed_between(nl, *c, &crossing, &duplicate)) {
                stats_.edges_rejected_crossing += crossing + duplicate;
                return false;
            }
        }
        if (would_deadlock(nl, nk, admit)) {
            ++stats_.edges_rejected_deadlock;
            return false;
        }
        for (const workload::QueryId cid : admit) {
            nl.partners.push_back(cid);
            find(cid)->partners.push_back(nl.id);
            ++stats_.edges_admitted;
        }
        return true;
    }

    void recompute_gating_numbers(workload::JobId job_id) {
        const auto it = jobs_.find(job_id);
        if (it == jobs_.end()) return;
        int count = 0;
        for (const auto& q : it->second.job->queries) {
            Node* node = find(q.id);
            if (node == nullptr) continue;
            if (!node->partners.empty()) ++count;
            node->gating_number = count;
        }
    }

    bool gating_enabled_;
    std::unordered_map<workload::QueryId, Node> nodes_;
    std::map<workload::JobId, JobEntry> jobs_;
    sched::GatingStats stats_;
    std::size_t ready_count_ = 0;
    std::uint64_t tick_ = 0;
};

/// What the gating campaigns exercised, summed over every case.
struct GatingCoverage {
    std::size_t admitted = 0;
    std::size_t deadlock_rejections = 0;
    std::size_t splitting_prunes = 0;
    std::size_t cyclic_states = 0;
    std::size_t cyclic_arrivals = 0;  ///< Arrivals refused edges for a cycle left by a prune.
    std::size_t forced = 0;
};

std::string compare_gating(const sched::PrecedenceGraph& graph, const ReferenceGraph& ref,
                           const std::vector<workload::Job>& jobs, std::size_t added) {
    for (std::size_t j = 0; j < added; ++j) {
        for (const workload::Query& q : jobs[j].queries) {
            const std::string at = "query " + std::to_string(q.id) + ": ";
            if (graph.state(q.id) != ref.state(q.id)) return at + "state diverged";
            if (graph.partner_count(q.id) != ref.partner_count(q.id))
                return at + "partner count " + std::to_string(graph.partner_count(q.id)) +
                       " vs reference " + std::to_string(ref.partner_count(q.id));
            if (graph.gating_number(q.id) != ref.gating_number(q.id))
                return at + "gating number diverged";
        }
    }
    const sched::GatingStats& a = graph.stats();
    const sched::GatingStats& b = ref.stats();
    const std::pair<std::size_t, std::size_t> counters[] = {
        {a.alignments_run, b.alignments_run},
        {a.edges_admitted, b.edges_admitted},
        {a.edges_rejected_gating_number, b.edges_rejected_gating_number},
        {a.edges_rejected_crossing, b.edges_rejected_crossing},
        {a.edges_rejected_deadlock, b.edges_rejected_deadlock},
        {a.forced_promotions, b.forced_promotions}};
    const char* names[] = {"alignments_run", "edges_admitted", "edges_rejected_gating_number",
                           "edges_rejected_crossing", "edges_rejected_deadlock",
                           "forced_promotions"};
    for (std::size_t i = 0; i < std::size(counters); ++i)
        if (counters[i].first != counters[i].second)
            return std::string(names[i]) + " " + std::to_string(counters[i].first) +
                   " vs reference " + std::to_string(counters[i].second);
    if (graph.has_ready() != ref.has_ready()) return "has_ready diverged";
    // A prune that splits a component can leave a cycle through queries that
    // are already running (DESIGN.md, "Exact deadlock check"): the reference
    // reports it too, so the audit must be clean exactly when the
    // reference's graph is acyclic.
    if (graph.audit() != ref.acyclic()) return "audit disagrees with the reference's acyclicity";
    return "";
}

/// Jobs 1-5, two queries each on step 0: once the head of job 4 is pruned,
/// the pieces it bridged hold the chains of jobs 1 and 2 running both ways,
/// a cycle (the pinned case in precedence_graph_test). Footprints are
/// Morton-sorted, as queries_share_data expects; the tails of jobs 3-5 use
/// atoms no random job touches.
void add_cycle_jobs(std::vector<workload::Job>& jobs) {
    const std::vector<std::vector<std::uint64_t>> heads = {{1, 5}, {3, 6}, {1, 4}, {3, 5}, {2, 6}};
    const std::uint64_t tails[] = {2, 4, 50, 51, 52};
    for (std::size_t j = 0; j < heads.size(); ++j) {
        workload::Job job;
        job.id = j + 1;
        job.type = workload::JobType::kOrdered;
        for (std::uint32_t seq = 0; seq < 2; ++seq) {
            workload::Query q;
            q.id = job.id * 100 + seq;
            q.job = job.id;
            q.seq_in_job = seq;
            for (const std::uint64_t m : seq == 0 ? heads[j] : std::vector{tails[j]})
                q.footprint.push_back(workload::AtomRequest{{0, m}, 1});
            job.queries.push_back(std::move(q));
        }
        jobs.push_back(std::move(job));
    }
}

/// Ordered and batched jobs over a few shared steps and atoms, added while
/// earlier queries become visible, run and get pruned, with an occasional
/// forced promotion. One gated campaign in four opens with add_cycle_jobs.
std::string gating_campaign(Gen& g, GatingCoverage& coverage) {
    const CountViolations quiet;
    const bool gating = g.below(8) != 0;
    const bool cycle_first = gating && g.below(4) == 0;
    const std::uint64_t steps = g.below(2) + 1;
    const std::uint64_t atoms = g.below(9) + 2;
    std::vector<workload::Job> jobs;
    if (cycle_first) add_cycle_jobs(jobs);
    for (std::uint64_t n = g.below(29) + 2; n > 0; --n) {
        workload::Job& job = jobs.emplace_back();
        job.id = jobs.size();
        job.type = g.below(5) == 0 ? workload::JobType::kBatched : workload::JobType::kOrdered;
        auto step = static_cast<std::uint32_t>(g.below(steps));
        const std::uint64_t length = g.below(7) + 1;
        for (std::uint32_t seq = 0; seq < length; ++seq) {
            if (g.below(3) == 0) step = static_cast<std::uint32_t>(g.below(steps));
            workload::Query q;
            q.id = job.id * 100 + seq;
            q.job = job.id;
            q.seq_in_job = seq;
            q.timestep = step;
            std::set<std::uint64_t> mortons{g.below(atoms)};
            if (g.boolean()) mortons.insert(g.below(atoms));
            for (const std::uint64_t m : mortons)
                q.footprint.push_back(workload::AtomRequest{{step, m}, 1});
            job.queries.push_back(std::move(q));
        }
    }

    sched::PrecedenceGraph graph(gating);
    ReferenceGraph ref(gating);
    std::size_t added = 0;
    std::vector<workload::QueryId> visible_next;  // WAIT queries whose inputs exist
    std::vector<workload::QueryId> running;       // QUEUE queries
    // The three steps of a query's life; each returns a divergence, or "".
    const auto arrive = [&] {
        const workload::Job& job = jobs[added++];
        graph.add_job(job);
        ref.add_job(job);
        for (const workload::Query& q : job.queries) {
            visible_next.push_back(q.id);
            if (job.type == workload::JobType::kOrdered) break;
        }
    };
    const auto show = [&](workload::QueryId id) -> std::string {
        std::erase(visible_next, id);
        const auto promoted = graph.on_query_visible(id);
        if (promoted != ref.on_query_visible(id))
            return "promotions of query " + std::to_string(id) + " diverged";
        running.insert(running.end(), promoted.begin(), promoted.end());
        return "";
    };
    const auto finish = [&](workload::QueryId id) -> std::string {
        std::erase(running, id);
        if (ref.prune_splits(id)) ++coverage.splitting_prunes;
        if (!graph.on_query_done(id).empty()) return "pruning promoted a query";
        ref.on_query_done(id);
        const workload::Job& job = jobs[id / 100 - 1];
        if (job.type == workload::JobType::kOrdered && id % 100 + 1 < job.queries.size())
            visible_next.push_back(id + 1);
        return "";
    };

    if (cycle_first) {
        for (int j = 0; j < 5; ++j) arrive();
        for (const workload::QueryId id : {100, 200, 300, 400, 500})
            if (const std::string diff = show(id); !diff.empty()) return "opening: " + diff;
        if (const std::string diff = finish(400); !diff.empty()) return "opening: " + diff;
        if (ref.acyclic()) return "opening: the prune left no cycle";
        if (const std::string diff = compare_gating(graph, ref, jobs, added); !diff.empty())
            return "opening: " + diff;
    }
    // Arrivals keep coming while earlier jobs drain, one per `pace` steps on
    // average, so jobs are merged into graphs that prunes have reshaped; while
    // a cycle left by a prune stands, every other step, so candidates meet it.
    const std::uint64_t pace = g.below(8) + 2;
    for (int op = 0; op < 600; ++op) {
        const std::string at = "op " + std::to_string(op) + ": ";
        const bool can_add = added < jobs.size();
        if (!can_add && visible_next.empty() && running.empty() && !ref.has_ready()) break;
        const bool cyclic = !ref.acyclic();
        if (cyclic) ++coverage.cyclic_states;
        std::string diff;
        if (can_add && g.below(cyclic ? 2 : pace) == 0) {
            const std::size_t refused = ref.stats().edges_rejected_deadlock;
            arrive();
            if (cyclic && ref.stats().edges_rejected_deadlock > refused) ++coverage.cyclic_arrivals;
        } else switch (g.below(6)) {
            case 0:
            case 1:
                if (visible_next.empty()) continue;
                diff = show(visible_next[g.below(visible_next.size())]);
                break;
            case 2:
            case 3:
            case 4:
                if (running.empty()) continue;
                diff = finish(running[g.below(running.size())]);
                break;
            default: {
                // Mostly as the engine does, when nothing else can run.
                const bool stalled = running.empty() && visible_next.empty();
                if (!ref.has_ready() || (!stalled && g.below(3) != 0)) continue;
                const auto promoted = graph.force_promote_oldest_ready();
                if (promoted != ref.force_promote_oldest_ready())
                    return at + "forced promotion diverged";
                running.insert(running.end(), promoted.begin(), promoted.end());
            }
        }
        if (diff.empty()) diff = compare_gating(graph, ref, jobs, added);
        if (!diff.empty()) return at + diff;
    }
    coverage.admitted += ref.stats().edges_admitted;
    coverage.deadlock_rejections += ref.stats().edges_rejected_deadlock;
    coverage.forced += ref.stats().forced_promotions;
    return "";
}

TEST(Differential, GatingAdmissionMatchesWholeGraphRebuild) {
    GatingCoverage coverage;
    Config config;
    config.cases = 400;
    const Outcome o =
        proptest::check(config, [&](Gen& g) { return gating_campaign(g, coverage); });
    EXPECT_TRUE(o.ok) << o.message;
    // Not vacuous: edges were admitted and refused as deadlocks, prunes split
    // gating components between merges, and jobs arrived into cycles those
    // prunes left.
    EXPECT_GT(coverage.admitted, 0u);
    EXPECT_GT(coverage.deadlock_rejections, 0u);
    EXPECT_GT(coverage.splitting_prunes, 0u);
    EXPECT_GT(coverage.cyclic_arrivals, 0u);
    std::printf("gating campaigns: %zu admitted, %zu deadlock rejections, %zu splitting prunes, "
                "%zu cyclic states, %zu arrivals refused by a cycle, %zu forced promotions\n",
                coverage.admitted, coverage.deadlock_rejections, coverage.splitting_prunes,
                coverage.cyclic_states, coverage.cyclic_arrivals, coverage.forced);
}

}  // namespace
}  // namespace jaws
