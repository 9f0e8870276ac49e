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
//     neighbours, searched over the whole footprint.
//
// Random streams drive each oracle and the production class side by side:
// every victim, every pick, every drained queue and every per-step mean must
// match exactly, and the production class must audit clean at every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cache/buffer_cache.h"
#include "cache/lru_k.h"
#include "proptest.h"
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
        } else {
            const bool hit = indexed.lookup(atom);
            if (hit != scan.lookup(atom)) return at + "hit/miss diverged on " + atom_str(atom);
            if (!hit) {
                const auto a = indexed.insert(atom);
                const auto b = scan.insert(atom);
                if (a != b)
                    return at + "miss on " + atom_str(atom) + " evicted " + atom_str(a) +
                           ", scan evicts " + atom_str(b);
            }
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
    std::unordered_set<storage::AtomId, storage::AtomIdHash> cached;
};

std::string show(const std::vector<storage::AtomId>& atoms) {
    std::string out = "[";
    for (const storage::AtomId& a : atoms) out += atom_str(a);
    return out + "]";
}

/// Every observable of the two managers, compared exactly.
std::string compare(const sched::WorkloadManager& m, const SetIndexManager& o,
                    std::uint32_t steps, util::SimTime now) {
    if (m.pick_best_atom() != o.pick_best_atom())
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

std::string manager_stream(Gen& g) {
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
    for (int i = 0; i < ops; ++i) {
        const std::string at = "op " + std::to_string(i) + ": ";
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
                // LifeRaft's loop: drain the best atom.
                const auto best = m.pick_best_atom();
                if (!best) break;
                if (m.drain_atom(*best).size() != o.drain_atom(*best).size())
                    return at + "drain of the best atom diverged";
            }
        }
        if (const std::string diff = compare(m, o, steps, now); !diff.empty()) return at + diff;
        if (!m.audit()) return at + "workload manager failed its audit";
    }
    return "";
}

TEST(Differential, WorkloadManagerMatchesSetIndex) {
    Config config;
    config.cases = 300;
    const Outcome o = proptest::check(config, manager_stream);
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
        const std::vector<std::uint64_t> got(sub.supports.begin(), sub.supports.end());
        if (got != decode_encode_supports(query, sub.atom.morton))
            return "supports of atom " + std::to_string(sub.atom.morton) + " diverged";
    }
    return "";
}

TEST(Differential, PreprocessSupportsMatchDecodeEncode) {
    const Outcome o = proptest::check(Config{}, preprocess_supports);
    EXPECT_TRUE(o.ok) << o.message;
}

}  // namespace
}  // namespace jaws
