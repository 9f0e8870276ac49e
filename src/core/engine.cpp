#include "core/engine.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "cache/lru.h"
#include "field/interpolation.h"
#include "cache/lru_k.h"
#include "cache/slru.h"
#include "cache/two_q.h"
#include "cache/urc.h"
#include "sched/jaws.h"
#include "sched/liferaft.h"
#include "sched/noshare.h"
#include "util/wallclock.h"

namespace jaws::core {

namespace {
/// Cost of fetching one kernel-support ghost region from disk, as a fraction
/// of T_b. Charged whenever a sub-query's interpolation kernel spills into a
/// neighbour atom that is not cache-resident (see proceed_supports).
constexpr double kSupportReadFraction = 0.10;

/// Virtual cost of one scheduler->database dispatch round trip (batch
/// submission, plan setup, clustered-index descent). Charged once per
/// non-empty batch: single-atom scheduling pays it per atom, the two-level
/// framework amortises it over k atoms, NoShare over a whole query.
constexpr double kDispatchOverheadMs = 5.0;

/// Retry backoff (RetrySpec): the virtual delay before the first retry, its
/// growth factor per further attempt, and the upper bound on any one delay.
constexpr double kBackoffBaseMs = 5.0;
constexpr double kBackoffMultiplier = 2.0;
constexpr double kBackoffCapMs = 1000.0;

/// Weight on the newest demand-read service time in the EWMA behind the
/// adaptive hedge trigger.
constexpr double kHedgeEwmaAlpha = 0.2;

/// Reject invalid configs before any member (notably the AtomStore, whose
/// layout math assumes a well-formed grid) is constructed from them.
const EngineConfig& validated(const EngineConfig& config) {
    config.validate();
    return config;
}

/// Fold interpolated samples into an FNV-1a digest, one fixed-layout block of
/// double bit patterns per sample (member-by-member, so struct padding can
/// never leak into the digest).
std::uint64_t fold_samples(std::uint64_t h,
                           const std::vector<field::FlowSample>& samples) {
    for (const field::FlowSample& s : samples) {
        const double vals[4] = {s.velocity.x, s.velocity.y, s.velocity.z,
                                s.pressure};
        h = fnv1a64(h, vals, sizeof vals);
    }
    return h;
}
}  // namespace

Engine::Engine(const EngineConfig& config)
    : Engine(config, nullptr, util::NodeIndex{0}) {}

Engine::Engine(const EngineConfig& config, util::EventQueue& events,
               util::NodeIndex node_id)
    : Engine(config, &events, node_id) {}

Engine::Engine(const EngineConfig& config, util::EventQueue* shared_events,
               util::NodeIndex node_id)
    : config_(validated(config)),
      owned_events_(shared_events != nullptr ? nullptr
                                             : std::make_unique<util::EventQueue>()),
      events_(shared_events != nullptr ? *shared_events : *owned_events_),
      node_id_(node_id),
      store_(storage::AtomStoreSpec{config.grid, config.field, config.disk,
                                    config.io_depth, config.materialize_data,
                                    config.faults}),
      db_(config.grid, config.compute),
      disk_res_(events_, config.io_depth, kPriService, node_id.value()),
      cpu_res_(events_, config.compute_workers, kPriService, node_id.value()),
      read_ewma_(kHedgeEwmaAlpha) {
    // A privately owned queue takes the configured tie-break perturbation
    // (a shared queue is perturbed once by its owner, the cluster kernel).
    if (owned_events_ != nullptr)
        owned_events_->set_perturbation(config_.tie_perturbation);
    config_.estimates.atoms_per_step = config_.grid.atoms_per_step();
    cache_ = std::make_unique<cache::BufferCache>(config.cache.capacity_atoms, make_policy());
    if (config_.cache.wall_clock_overhead) cache_->set_tick_source(util::wall_clock_ns);
    scheduler_ = make_scheduler();
    if (config_.prefetch.enabled) {
        prefetcher_ = std::make_unique<sched::TrajectoryPrefetcher>(
            config_.prefetch, config_.grid.atoms_per_side());
        prefetch_read_.resize(config_.io_depth);
    }
    // Real-thread evaluation (EvalSpec): an external pool always wins;
    // otherwise a parallel materialised run gets an engine-owned pool sized
    // to the modeled CPU channels. Descriptor-only runs never spawn threads.
    if (config_.eval.pool != nullptr) {
        eval_pool_ = config_.eval.pool;
    } else if (config_.eval.parallel && config_.materialize_data) {
        owned_eval_pool_ = std::make_unique<util::ThreadPool>(config_.compute_workers);
        eval_pool_ = owned_eval_pool_.get();
    }
    if (config_.eval.wall_clock_timing) eval_tick_ = util::wall_clock_ns;
    disk_res_.set_observer([this] { account_tick(); });
    cpu_res_.set_observer([this] { account_tick(); });
    // A disk channel going idle with no demand read waiting is the window for
    // speculative trajectory reads (Sec. VII as *background* I/O).
    disk_res_.set_idle_hook([this] { try_issue_prefetch(); });
}

std::unique_ptr<cache::ReplacementPolicy> Engine::make_policy() {
    switch (config_.cache.policy) {
        case CachePolicy::kLru:
            return std::make_unique<cache::LruPolicy>();
        case CachePolicy::kLruK:
            return std::make_unique<cache::LruKPolicy>(config_.cache.lru_k);
        case CachePolicy::kSlru:
            return std::make_unique<cache::SlruPolicy>(config_.cache.capacity_atoms);
        case CachePolicy::kUrc:
            return std::make_unique<cache::UrcPolicy>(oracle_);
        case CachePolicy::kTwoQ:
            return std::make_unique<cache::TwoQPolicy>(config_.cache.capacity_atoms);
    }
    throw std::invalid_argument("unknown cache policy");
}

std::unique_ptr<sched::Scheduler> Engine::make_scheduler() {
    switch (config_.scheduler.kind) {
        case SchedulerKind::kNoShare:
            return std::make_unique<sched::NoShareScheduler>();
        case SchedulerKind::kLifeRaft: {
            auto s = std::make_unique<sched::LifeRaftScheduler>(
                config_.estimates, cache_.get(), config_.scheduler.liferaft_alpha);
            oracle_.set(&s->manager());
            return s;
        }
        case SchedulerKind::kJaws: {
            auto s = std::make_unique<sched::JawsScheduler>(config_.estimates, cache_.get(),
                                                            config_.scheduler.jaws);
            oracle_.set(&s->manager());
            return s;
        }
    }
    throw std::invalid_argument("unknown scheduler kind");
}

// --------------------------------------------------------------------------
// Admission
// --------------------------------------------------------------------------

void Engine::push_visibility(util::SimTime at, workload::QueryId id) {
    visibility_.push(VisibilityEvent{at, id});
    // Future events need a kernel wake-up; already-due ones are drained by the
    // admission pass of the dispatch event that is (or will be) scheduled for
    // this instant.
    if (at > events_.now())
        events_.schedule(at, kPriVisibility, node_id_.value(), [this] {
            if (!halted_ && !batch_.active) ensure_dispatch();
        });
}

void Engine::require_kernel_fit(const workload::Job& job) const {
    if (!config_.materialize_data) return;
    for (const workload::Query& q : job.queries)
        if (field::kernel_half_width(q.order) > config_.grid.ghost)
            throw std::invalid_argument(
                "Engine: interpolation order " +
                std::to_string(static_cast<int>(q.order)) + " (query " +
                std::to_string(q.id) + ") needs kernel half-width " +
                std::to_string(field::kernel_half_width(q.order)) +
                " <= grid.ghost (" + std::to_string(config_.grid.ghost) +
                ") when materialize_data is set");
}

void Engine::submit_job(const workload::Job& job) {
    scheduler_->on_job_submitted(job);
    if (job.queries.empty()) return;
    util::SlotIndex::Slot remaining = job_remaining_.find(job.id);
    if (remaining == util::SlotIndex::kNone) remaining = job_remaining_.insert(job.id);
    job_remaining_[remaining] = job.queries.size();
    for (const auto& q : job.queries) {
        if (runtime_.contains(q.id)) continue;  // an id is admitted once
        QueryRuntime& rt = runtime_[runtime_.insert(q.id)];
        rt.query = &q;
        rt.job = &job;
        rt.outstanding = q.footprint.size();
    }
    if (job.type == workload::JobType::kOrdered) {
        // Only the head is visible; successors appear as predecessors finish.
        push_visibility(job.arrival, job.queries.front().id);
    } else {
        for (const auto& q : job.queries)
            push_visibility(job.arrival + q.think_time, q.id);
    }
}

void Engine::make_visible(workload::QueryId id) {
    QueryRuntime& rt = runtime_of(id);
    assert(!rt.visible);
    rt.visible = true;
    rt.visible_at = events_.now();
    scheduler_->on_query_visible(*rt.query, events_.now());
}

void Engine::admit_due() {
    // Arrivals first (their submission may push visibility events that are
    // themselves already due), then visibility events ordered by (at, id) —
    // the pre-kernel engine's exact admission order.
    for (const workload::Job* job : due_jobs_) submit_job(*job);
    due_jobs_.clear();
    while (!visibility_.empty() && visibility_.top().at <= events_.now()) {
        const workload::QueryId id = visibility_.top().query;
        visibility_.pop();
        make_visible(id);
    }
}

void Engine::ensure_dispatch() {
    if (dispatch_pending_ || halted_) return;
    dispatch_pending_ = true;
    events_.schedule(events_.now(), kPriDispatch, node_id_.value(), [this] {
        dispatch_pending_ = false;
        on_dispatch();
    });
}

void Engine::on_dispatch() {
    if (halted_ || batch_.active) return;
    admit_due();
    if (scheduler_->has_pending()) {
        scheduler_->next_batch(events_.now(), batch_.work);
        if (!batch_.work.empty()) {
            start_batch();
            return;
        }
    }
    // Going idle until the next arrival/visibility wake-up: spend the gap on
    // speculative trajectory reads.
    try_issue_prefetch();
}

// --------------------------------------------------------------------------
// Batch pipeline
// --------------------------------------------------------------------------

void Engine::start_batch() {
    account_tick();
    const std::vector<sched::BatchItem>& work = batch_.work.items;
    batch_.items.resize(work.size());  // fresh ItemRuns: end_batch cleared them
    for (std::size_t i = 0; i < work.size(); ++i) batch_.items[i].item = work[i];
    batch_.next_issue = 0;
    batch_.finished = 0;
    batch_.in_flight = 0;
    batch_.active = true;
    // One scheduler->database dispatch round trip per batch, then the
    // pipeline starts issuing items.
    events_.schedule(
        events_.now() + util::SimTime::from_millis(kDispatchOverheadMs),
        kPriService, node_id_.value(), [this] { issue_more(); });
}

void Engine::issue_more() {
    // The pipeline window scales with the disks that can serve this node's
    // reads: a replica chain of depth d keeps d * io_depth items in flight
    // (each disk contributes its own channel parallelism). Without a router
    // — or at replication 1 — this is exactly io_depth.
    const std::size_t window =
        config_.io_depth *
        (router_ != nullptr ? router_->read_concurrency(node_id_) : 1);
    while (batch_.active && batch_.next_issue < batch_.items.size() &&
           batch_.in_flight < window) {
        const std::size_t idx = batch_.next_issue++;
        ++batch_.in_flight;
        issue_item(idx);
    }
}

void Engine::issue_item(std::size_t idx) {
    ItemRun& it = batch_.items[idx];
    ++report_.atoms_processed;
    if (prefetcher_ != nullptr) prefetcher_->on_demand_access(it.item.atom);
    if (cache_->lookup(it.item.atom)) {
        it.payload = cache_->payload(it.item.atom);
        proceed_supports(idx);
        return;
    }
    it.attempt = 1;
    it.backoff_ms = kBackoffBaseMs;
    submit_demand_read(idx);
    arm_hedge_trigger(idx);
}

void Engine::submit_demand_read(std::size_t idx) {
    ItemRun& it = batch_.items[idx];
    // Replica-aware routing (unified cluster): any surviving member of the
    // atom's replica chain may serve the read; the router picks the one with
    // the shallowest modeled disk queue. Standalone engines serve locally —
    // the exact pre-router event sequence.
    it.read_route = router_ != nullptr
                        ? router_->route_read(node_id_, it.item.atom)
                        : self_route();
    if (it.read_route.node != node_id_) ++report_.replica_reads;
    util::SimResource::Job job;
    job.priority = 0;
    job.preemptible = false;
    job.on_start = [this, idx](std::size_t channel) {
        ItemRun& run = batch_.items[idx];
        run.read = run.read_route.store->read(run.item.atom, util::ChannelIndex{channel});
        return run.read.io_cost;
    };
    job.on_complete = [this, idx](std::size_t) { demand_read_done(idx); };
    job.on_abort = [this, idx](std::size_t, util::SimTime remaining) {
        // Cancelled because the hedge won: refund the unrendered tail and
        // count the rendered part as the price of hedging.
        ItemRun& run = batch_.items[idx];
        refund_read_tail(run.read_route, run.read, remaining);
        report_.wasted_service += run.read.io_cost - remaining;
    };
    it.read_job = it.read_route.disk->submit(std::move(job));
}

void Engine::demand_read_done(std::size_t idx) {
    ItemRun& it = batch_.items[idx];
    it.read_job = 0;
    if (!it.read.failed) {
        if (config_.hedge.enabled) read_ewma_.update(it.read.io_cost.millis());
        cancel_hedge_machinery(idx);
        ++report_.atom_reads;
        it.payload = std::move(it.read.data);
        insert_into_cache(it.item.atom, it.payload);
        proceed_supports(idx);
        return;
    }
    if (!it.read.permanent && it.attempt < config_.retry.max_attempts) {
        // Deadline budgets are enforced at retry boundaries: owning queries
        // already over budget abandon their sub-queries here (completing
        // degraded) instead of riding the backoff queue further.
        if (config_.deadline_budget_ms > 0.0 && !drop_expired_subqueries(it)) {
            // Every owner gave up — nothing left to retry for. Not a read
            // failure: the atom may be fine, the budget just ran out.
            cancel_hedge_machinery(idx);
            item_finished(idx);
            return;
        }
        if (config_.retry.total_retry_budget == 0 ||
            report_.read_retries < config_.retry.total_retry_budget) {
            // Transient fault: back off exponentially (bounded) before
            // retrying. The channel is released during the backoff — other
            // in-flight items keep the disk busy — and the delay shows up in
            // response times, so QoS deadline checks see the true degraded
            // timeline.
            const auto backoff =
                util::SimTime::from_millis(std::min(it.backoff_ms, kBackoffCapMs));
            it.backoff_ms *= kBackoffMultiplier;
            report_.retry_backoff_time += backoff;
            ++report_.read_retries;
            ++it.attempt;
            it.retry_event = events_.schedule(
                events_.now() + backoff, kPriService, node_id_.value(), [this, idx] {
                    batch_.items[idx].retry_event = 0;
                    submit_demand_read(idx);
                });
            return;
        }
        // Circuit breaker: past the engine-wide retry budget, transient
        // failures fail fast instead of piling onto the backoff queue.
        ++report_.retries_suppressed;
    }
    // The atom's data is unreachable: abandon this batch item's sub-queries
    // (their queries complete degraded). A permanently bad atom also purges
    // whatever later-visible queries queued against it, so the scheduler
    // never chases a dead atom forever.
    ++report_.read_failures;
    cancel_hedge_machinery(idx);
    fail_subqueries(subqueries_of(it));
    if (it.read_route.store->faults().permanently_bad(it.item.atom))
        purge_dead_atom(it.item.atom);
    item_finished(idx);
}

// --------------------------------------------------------------------------
// Hedged reads & deadline budgets
// --------------------------------------------------------------------------

util::SimTime Engine::hedge_trigger_delay() const {
    const double base =
        read_ewma_.primed() ? read_ewma_.value() : config_.estimates.t_b_ms;
    return util::SimTime::from_millis(config_.hedge.trigger_ewma_multiplier * base);
}

void Engine::arm_hedge_trigger(std::size_t idx) {
    // With hedging off nothing is scheduled here, so the kernel's event and
    // id sequence — and therefore every golden report — is untouched.
    if (!config_.hedge.enabled) return;
    batch_.items[idx].hedge_trigger = events_.schedule(
        events_.now() + hedge_trigger_delay(), kPriService, node_id_.value(), [this, idx] {
            batch_.items[idx].hedge_trigger = 0;
            maybe_issue_hedge(idx);
        });
}

void Engine::maybe_issue_hedge(std::size_t idx) {
    ItemRun& it = batch_.items[idx];
    // Only while the demand phase is still unresolved (primary read in
    // flight or a backoff retry pending).
    if (it.read_job == 0 && it.retry_event == 0) return;
    if (outstanding_hedges_ >= config_.hedge.max_outstanding) return;
    // The hedge is charged to every distinct owning query that still has
    // budget; at least one must be able to pay.
    payers_.clear();
    for (const sched::SubQuery& sub : subqueries_of(it)) {
        QueryRuntime& rt = runtime_of(sub.query);
        if (rt.hedges >= config_.hedge.budget_per_query) continue;
        if (std::find(payers_.begin(), payers_.end(), &rt) == payers_.end())
            payers_.push_back(&rt);
    }
    if (payers_.empty()) return;
    for (QueryRuntime* rt : payers_) ++rt->hedges;
    ++report_.hedges_issued;
    ++outstanding_hedges_;
    report_.peak_hedges_outstanding =
        std::max(report_.peak_hedges_outstanding, outstanding_hedges_);
    // The hedge prefers a surviving replica *other* than the primary's node,
    // so the duplicate rides independent hardware; a standalone engine (or a
    // chain with no alternative) lands it on another channel of the same
    // disk, as in single-node hedging.
    it.hedge_route =
        router_ != nullptr
            ? router_->route_hedge(node_id_, it.item.atom, it.read_route.node)
            : self_route();
    if (it.hedge_route.node != node_id_) ++report_.replica_reads;
    util::SimResource::Job job;
    job.priority = 0;
    job.preemptible = false;
    job.on_start = [this, idx](std::size_t channel) {
        ItemRun& run = batch_.items[idx];
        run.hedge_read = run.hedge_route.store->read(run.item.atom, util::ChannelIndex{channel});
        return run.hedge_read.io_cost;
    };
    job.on_complete = [this, idx](std::size_t) { hedge_done(idx); };
    job.on_abort = [this, idx](std::size_t, util::SimTime remaining) {
        // Cancelled because the primary won: refund the unrendered tail and
        // count the rendered part as the price of hedging.
        ItemRun& run = batch_.items[idx];
        refund_read_tail(run.hedge_route, run.hedge_read, remaining);
        report_.wasted_service += run.hedge_read.io_cost - remaining;
    };
    it.hedge_job = it.hedge_route.disk->submit(std::move(job));
}

void Engine::hedge_done(std::size_t idx) {
    ItemRun& it = batch_.items[idx];
    it.hedge_job = 0;
    --outstanding_hedges_;
    if (it.hedge_read.failed) {
        // The duplicate drew a fault of its own: drop it; the primary path
        // (in-service read or pending backoff) keeps running.
        ++report_.hedges_lost;
        return;
    }
    ++report_.hedges_won;
    read_ewma_.update(it.hedge_read.io_cost.millis());
    // First completion wins: cancel the losing primary. Both submissions are
    // non-preemptible FIFO peers, so the hedge can only have started after
    // the primary did — the primary is in service (its on_abort refunds the
    // unrendered tail) or waiting out a backoff. cancel() returning false
    // means the primary resolved at this exact instant and already settled.
    if (it.read_job != 0) {
        if (it.read_route.disk->cancel(it.read_job)) ++report_.cancellations;
        it.read_job = 0;
    }
    if (it.retry_event != 0) {
        if (events_.cancel(it.retry_event)) ++report_.cancellations;
        it.retry_event = 0;
    }
    ++report_.atom_reads;
    it.payload = std::move(it.hedge_read.data);
    insert_into_cache(it.item.atom, it.payload);
    proceed_supports(idx);
}

void Engine::cancel_hedge_machinery(std::size_t idx) {
    ItemRun& it = batch_.items[idx];
    if (it.hedge_trigger != 0) {
        events_.cancel(it.hedge_trigger);
        it.hedge_trigger = 0;
    }
    if (it.hedge_job != 0) {
        // A still-waiting hedge is silently removed (its read never started);
        // an in-service one runs its on_abort refund. Either way it lost.
        if (it.hedge_route.disk->cancel(it.hedge_job)) {
            --outstanding_hedges_;
            ++report_.hedges_lost;
            ++report_.cancellations;
        }
        it.hedge_job = 0;
    }
}

void Engine::refund_read_tail(const storage::ReadRoute& route,
                              const storage::ReadResult& read,
                              util::SimTime remaining) {
    // Injected stalls (spikes, stuck reads) render after the mechanical
    // service in the model, so the refund comes out of the fault-delay
    // ledger first and only the remainder out of true service time —
    // keeping the two disjoint after mixed cancels. The refund goes to the
    // disk that rendered the read — a replica's, when the route crossed
    // nodes.
    const util::SimTime fault_part = std::min(remaining, read.fault_delay);
    if (fault_part > util::SimTime::zero()) route.store->disk().refund_delay(fault_part);
    const util::SimTime service_part = remaining - fault_part;
    route.store->disk().cancel_tail(service_part);
}

bool Engine::drop_expired_subqueries(ItemRun& it) {
    const util::SimTime now = events_.now();
    // Move the expired sub-queries out and close the gaps in the item's range
    // (both in order), then fail them.
    failing_.clear();
    const std::span<sched::SubQuery> subs = subqueries_of(it);
    std::size_t kept = 0;
    for (const sched::SubQuery& sub : subs) {
        QueryRuntime& rt = runtime_of(sub.query);
        if ((now - rt.visible_at).millis() > config_.deadline_budget_ms) {
            if (!rt.deadline_missed) {
                rt.deadline_missed = true;
                ++report_.deadline_misses;
            }
            failing_.push_back(sub);
        } else {
            subs[kept++] = sub;
        }
    }
    it.item.count = kept;
    if (!failing_.empty()) fail_subqueries(failing_);
    return kept > 0;
}

void Engine::proceed_supports(std::size_t idx) {
    // Kernel supports: neighbour atoms the sub-queries draw interpolation
    // samples from. A cache-resident support costs nothing — and because
    // supports point at Morton-earlier neighbours, a Morton-ordered batch
    // has just read them (the locality of reference the two-level framework
    // exploits, paper Sec. V). A cold support costs a partial ghost read that
    // is *not* cached, so single-atom contention chasing pays it again on
    // later passes ("may access the same atom multiple times on different
    // passes"). The cold reads of one item are charged as a single disk job.
    // Every sub-query of the item shares its atom, so their supports are
    // among the same three lower neighbours: look each marked one up once,
    // in ascending Morton order.
    ItemRun& it = batch_.items[idx];
    sched::Supports marked;
    for (const sched::SubQuery& sub : subqueries_of(it)) {
        assert(sub.atom.morton == it.item.atom.morton);
        marked |= sub.supports;
    }
    sched::SupportCodes codes = sched::support_codes(it.item.atom, marked);
    codes.sort();
    std::int64_t cold = 0;
    for (const std::uint64_t code : codes) {
        const storage::AtomId support{it.item.atom.timestep, code};
        if (prefetcher_ != nullptr) prefetcher_->on_demand_access(support);
        if (cache_->lookup(support)) continue;  // ghost served from memory
        ++report_.support_reads;
        ++cold;
    }
    if (cold == 0) {
        begin_compute(idx);
        return;
    }
    // Per-read cost converted to micros *before* multiplying, so the total
    // matches the pre-kernel engine's per-support clock advances exactly.
    const auto per_read =
        util::SimTime::from_millis(kSupportReadFraction * config_.estimates.t_b_ms);
    const util::SimTime duration = per_read.scaled_by(cold);
    util::SimResource::Job job;
    job.priority = 0;
    job.preemptible = false;
    job.on_start = [duration](std::size_t) { return duration; };
    job.on_complete = [this, idx](std::size_t) { begin_compute(idx); };
    disk_res_.submit(std::move(job));
}

void Engine::begin_compute(std::size_t idx) {
    ItemRun& it = batch_.items[idx];
    it.next_sub = 0;
    if (it.item.count == 0) {
        item_finished(idx);
        return;
    }
    submit_compute(idx);
}

void Engine::submit_compute(std::size_t idx) {
    util::SimResource::Job job;
    job.priority = 0;
    job.preemptible = false;
    job.on_start = [this, idx](std::size_t) {
        ItemRun& it = batch_.items[idx];
        const sched::SubQuery& sub = subqueries_of(it)[it.next_sub];
        it.runtime_slot = runtime_slot_of(sub.query);
        const QueryRuntime& rt = runtime_[it.runtime_slot];
        storage::SubQueryExec exec;
        exec.atom = it.item.atom;
        exec.position_count = sub.positions;
        exec.order = rt.query->order;
        exec.kind = rt.query->kind;
        if (it.payload != nullptr && !rt.query->positions.empty()) {
            // Examples run with real data: evaluate the positions of this
            // query that fall inside this atom.
            for (const auto& p : rt.query->positions)
                if (config_.grid.atom_morton_of(p) == it.item.atom.morton)
                    exec.positions.push_back(p);
        }
        // The modeled T_m service is authoritative for virtual time whether
        // the real interpolation runs inline or on the pool.
        const util::SimTime cost = db_.modeled_cost(exec);
        if (eval_pool_ != nullptr && it.payload != nullptr &&
            !exec.positions.empty()) {
            // Dispatch the real work; compute_done() joins the future at the
            // modeled completion event. Each in-service CPU channel owns at
            // most one task, bounding in-flight work to compute_workers.
            ++report_.eval_tasks;
            it.eval_on_pool = true;
            it.pending_eval = eval_pool_->submit(
                [this, exec = std::move(exec), payload = it.payload]() {
                    const std::uint64_t t0 = eval_tick_ ? eval_tick_() : 0;
                    storage::ExecOutcome out = db_.execute(exec, payload.get());
                    if (eval_tick_)
                        eval_wall_ns_.fetch_add(eval_tick_() - t0,
                                                std::memory_order_relaxed);
                    return out;
                });
        } else {
            const std::uint64_t t0 = eval_tick_ ? eval_tick_() : 0;
            it.staged_eval = db_.execute(exec, it.payload.get());
            if (eval_tick_)
                eval_wall_ns_.fetch_add(eval_tick_() - t0,
                                        std::memory_order_relaxed);
        }
        return cost;
    };
    job.on_complete = [this, idx](std::size_t) { compute_done(idx); };
    cpu_res_.submit(std::move(job));
}

void Engine::compute_done(std::size_t idx) {
    ItemRun& it = batch_.items[idx];
    const sched::SubQuery& sub = subqueries_of(it)[it.next_sub];
    ++report_.subqueries;
    report_.positions += sub.positions;
    QueryRuntime& rt = runtime_[it.runtime_slot];
    // Deterministic reduction: the real result (pooled or inline) is folded
    // here, at the modeled completion event — so sample order and digests
    // depend only on the virtual trace, never on real-thread interleaving.
    storage::ExecOutcome out;
    if (it.eval_on_pool) {
        it.eval_on_pool = false;
        out = it.pending_eval.get();
    } else {
        out = std::move(it.staged_eval);
        it.staged_eval = storage::ExecOutcome{};
    }
    if (!out.samples.empty()) {
        rt.samples_evaluated += out.samples.size();
        rt.sample_digest = fold_samples(rt.sample_digest, out.samples);
        report_.samples_evaluated += out.samples.size();
        report_.sample_digest = fold_samples(report_.sample_digest, out.samples);
    }
    assert(rt.outstanding > 0);
    if (--rt.outstanding == 0) complete_query(rt);
    if (++it.next_sub < it.item.count)
        submit_compute(idx);
    else
        item_finished(idx);
}

void Engine::item_finished(std::size_t idx) {
    (void)idx;
    --batch_.in_flight;
    ++batch_.finished;
    if (batch_.finished == batch_.items.size()) {
        end_batch();
        return;
    }
    issue_more();
}

void Engine::end_batch() {
    account_tick();
    batch_.active = false;
    batch_.items.clear();  // drops the items' payload references
    // Re-admit and re-dispatch at this instant — unless the node died
    // mid-batch, in which case the batch was allowed to finish but nothing
    // new starts (and the cluster kernel may now fail the leftovers over).
    if (!halted_)
        ensure_dispatch();
    else
        maybe_halt_drained();
}

// --------------------------------------------------------------------------
// Completion bookkeeping
// --------------------------------------------------------------------------

void Engine::insert_into_cache(const storage::AtomId& atom,
                               std::shared_ptr<const field::VoxelBlock> data) {
    const auto evicted = cache_->insert(atom, std::move(data));
    scheduler_->on_residency_changed(atom);
    if (evicted) {
        scheduler_->on_residency_changed(*evicted);
        if (prefetcher_ != nullptr) prefetcher_->on_evicted(*evicted);
    }
}

void Engine::purge_dead_atom(const storage::AtomId& atom) {
    failing_.clear();
    scheduler_->purge_atom(atom, failing_);
    fail_subqueries(failing_);
}

void Engine::fail_subqueries(std::span<const sched::SubQuery> subs) {
    for (const sched::SubQuery& sub : subs) {
        QueryRuntime& rt = runtime_of(sub.query);
        ++rt.failed;
        ++report_.failed_subqueries;
        assert(rt.outstanding > 0);
        if (--rt.outstanding == 0) complete_query(rt);
    }
}

void Engine::complete_query(QueryRuntime& rt) {
    const util::SimTime now = events_.now();
    end_time_ = now;  // makespan end (a halt drain may move it later)
    timeline_tick(now, (now - rt.visible_at).millis());
    QueryOutcome outcome;
    outcome.query = rt.query->id;
    outcome.job = rt.query->job;
    outcome.visible = rt.visible_at;
    outcome.completed = now;
    outcome.failed_subqueries = rt.failed;
    outcome.samples_evaluated = rt.samples_evaluated;
    outcome.sample_digest = rt.sample_digest;
    outcome.hedged_reads = rt.hedges;
    outcome.deadline_missed = rt.deadline_missed;
    if (rt.failed > 0) ++report_.degraded_queries;
    outcomes_.push_back(outcome);
    ++report_.queries;

    scheduler_->on_query_completed(rt.query->id, outcome.response(), now);
    if (config_.run_length > 0 && report_.queries % config_.run_length == 0) {
        scheduler_->on_run_boundary(now);
        cache_->run_boundary();
    }

    // Ordered successor becomes visible after the user's think time.
    const workload::Job& job = *rt.job;
    if (job.type == workload::JobType::kOrdered &&
        rt.query->seq_in_job + 1 < job.queries.size()) {
        const workload::Query& next = job.queries[rt.query->seq_in_job + 1];
        push_visibility(now + next.think_time, next.id);
        // Trajectory prefetching (Sec. VII): learn the job's motion and queue
        // speculative reads for the atoms its next query is predicted to hit.
        if (prefetcher_ != nullptr) {
            prefetcher_->observe(job.id, rt.query->seq_in_job, rt.query->timestep,
                                 rt.query->footprint);
            for (const storage::AtomId& atom : prefetcher_->predict(job.id))
                prefetch_queue_.push_back(atom);
            // Stale predictions (whose target query already ran) are worse
            // than none. Background issuance drains the queue far faster than
            // the old idle-gap prefetcher did, so keep only the newest
            // batch's worth: everything older would issue as cache-churning
            // speculation for queries that have already moved on.
            const std::size_t cap = prefetcher_->config().max_atoms_per_batch;
            if (prefetch_queue_.size() > cap)
                prefetch_queue_.erase(prefetch_queue_.begin(),
                                      prefetch_queue_.end() -
                                          static_cast<std::ptrdiff_t>(cap));
            // Fresh predictions may be issuable right now on an idle channel.
            try_issue_prefetch();
        }
    } else if (prefetcher_ != nullptr && job.type == workload::JobType::kOrdered) {
        prefetcher_->forget(job.id);
    }

    const util::SlotIndex::Slot remaining = job_remaining_.find(job.id);
    assert(remaining != util::SlotIndex::kNone);
    if (--job_remaining_[remaining] == 0) {
        report_.job_span_ms.push_back((now - job.arrival).millis());
        job_remaining_.erase(job.id);
    }
}

// --------------------------------------------------------------------------
// Background prefetch
// --------------------------------------------------------------------------

void Engine::try_issue_prefetch() {
    // Speculative reads are true background I/O: they run on any disk channel
    // that would otherwise sit idle ("this can also help mask the cost of
    // random reads" — Sec. VII) and a later demand read preempts them
    // mid-service, so they can never delay demand work.
    if (prefetcher_ == nullptr || halted_) return;
    while (!prefetch_queue_.empty() && disk_res_.has_free_channel() &&
           disk_res_.queued() == 0) {
        const storage::AtomId atom = prefetch_queue_.back();
        prefetch_queue_.pop_back();
        if (cache_->contains(atom) || !store_.contains(atom)) continue;
        util::SimResource::Job job;
        job.priority = 1;  // behind any demand read
        job.preemptible = true;
        job.on_start = [this, atom](std::size_t channel) {
            prefetch_read_[channel] = store_.read(atom, util::ChannelIndex{channel});
            return prefetch_read_[channel].io_cost;
        };
        job.on_complete = [this, atom](std::size_t channel) {
            storage::ReadResult rr = std::move(prefetch_read_[channel]);
            // Best-effort: a faulted attempt is simply dropped (no retries —
            // demand reads will recover if it matters).
            if (rr.failed) return;
            ++report_.atom_reads;
            insert_into_cache(atom, std::move(rr.data));
            prefetcher_->on_prefetched(atom);
        };
        job.on_abort = [this, atom](std::size_t channel, util::SimTime remaining) {
            // The read()'s full cost was charged when service started; give
            // back the tail the channel never actually rendered (split across
            // the service and fault-delay ledgers so they stay disjoint).
            refund_read_tail(self_route(), prefetch_read_[channel], remaining);
            ++report_.prefetch_aborted;
            prefetcher_->on_aborted(atom);
        };
        disk_res_.submit(std::move(job));
    }
}

// --------------------------------------------------------------------------
// Accounting
// --------------------------------------------------------------------------

void Engine::account_tick() { account_to(events_.now()); }

void Engine::account_to(util::SimTime now) {
    const util::SimTime dt = now - last_account_;
    if (dt <= util::SimTime::zero()) return;
    last_account_ = now;
    const bool disk_busy = disk_res_.busy_channels() > 0;
    const bool cpu_busy = cpu_res_.busy_channels() > 0;
    if (disk_busy) report_.disk_busy_time += dt;
    if (cpu_busy) report_.cpu_busy_time += dt;
    if (disk_busy && cpu_busy) report_.overlap_time += dt;
    // "Idle" reproduces the pre-kernel engine's jumped-gap accounting: time
    // with no batch active and both resources quiet (dispatch overhead and
    // retry backoff inside a batch are busy time, not idle).
    if (!disk_busy && !cpu_busy && !batch_.active) report_.idle_time += dt;
}

void Engine::flush_timeline_window(util::SimTime window_end, double window_seconds) {
    TimelinePoint point;
    point.window_end = window_end;
    point.completions = window_completions_;
    point.mean_response_ms =
        window_completions_
            ? window_response_ms_sum_ / static_cast<double>(window_completions_)
            : 0.0;
    point.alpha = scheduler_->current_alpha();
    point.backlog_subqueries = scheduler_->pending_count();
    point.cache_hit_rate = cache_->stats().hit_rate();
    // Utilisation over the span since the previous flush (windows are flushed
    // lazily at completion times, so a long quiet stretch settles its whole
    // span on the first window flushed after it).
    const util::SimTime disk_ct = disk_res_.busy_channel_time();
    const util::SimTime cpu_ct = cpu_res_.busy_channel_time();
    if (window_seconds > 0.0) {
        point.disk_utilization = (disk_ct - tl_disk_channel_time_).seconds() /
                                 (window_seconds * static_cast<double>(config_.io_depth));
        point.cpu_utilization =
            (cpu_ct - tl_cpu_channel_time_).seconds() /
            (window_seconds * static_cast<double>(config_.compute_workers));
        point.overlap_fraction =
            (report_.overlap_time - tl_overlap_time_).seconds() / window_seconds;
    }
    tl_disk_channel_time_ = disk_ct;
    tl_cpu_channel_time_ = cpu_ct;
    tl_overlap_time_ = report_.overlap_time;
    report_.timeline.push_back(point);
    window_completions_ = 0;
    window_response_ms_sum_ = 0.0;
}

void Engine::timeline_tick(util::SimTime now, double response_ms) {
    if (config_.timeline_window_s <= 0.0) return;
    const auto window = util::SimTime::from_seconds(config_.timeline_window_s);
    if (now >= timeline_next_) account_tick();  // bring integrals current
    while (now >= timeline_next_) {
        flush_timeline_window(timeline_next_, config_.timeline_window_s);
        timeline_next_ += window;
    }
    if (response_ms >= 0.0) {
        ++window_completions_;
        window_response_ms_sum_ += response_ms;
    }
}

// --------------------------------------------------------------------------
// Lifecycle: begin / inject_job / finish, and run() on top of it
// --------------------------------------------------------------------------

void Engine::start_clock(util::SimTime t) {
    clock_started_ = true;
    start_ = t;
    end_time_ = t;
    // Accounting was anchored at the origin by begin(); never rewind it (on a
    // shared kernel this node's disk may already have served replica reads
    // for other nodes before its own first arrival).
    if (t > last_account_) last_account_ = t;
}

void Engine::maybe_halt_drained() {
    if (!halted_ || batch_.active || halt_drain_fired_) return;
    halt_drain_fired_ = true;
    // A node that finished everything before dying keeps its completion-time
    // makespan; only an interrupted node ends at the drain instant.
    if (clock_started_ && report_.queries < expected_) end_time_ = events_.now();
    if (halt_drained_) halt_drained_();
}

bool Engine::try_unstick() {
    if (!scheduler_->unstick(events_.now())) return false;
    ensure_dispatch();
    return true;
}

void Engine::begin(util::SimTime origin, util::SimTime halt_at) {
    if (ran_) throw std::logic_error("Engine::begin: engine instances are single-shot");
    ran_ = true;
    last_account_ = origin;
    // Timeline windows are pinned to the origin (on a shared kernel: the
    // cluster's, not this node's first arrival) so every node's windows
    // align for cluster-level merging.
    if (config_.timeline_window_s > 0.0)
        timeline_next_ = origin + util::SimTime::from_seconds(config_.timeline_window_s);
    // Node death (cluster failover): an active batch is allowed to complete,
    // but nothing further is admitted or dispatched.
    if (halt_at != util::SimTime::max())
        events_.schedule(halt_at, kPriHalt, node_id_.value(), [this] {
            halted_ = true;
            maybe_halt_drained();
        });
}

void Engine::inject_job(const workload::Job& job) {
    require_kernel_fit(job);
    if (!clock_started_) start_clock(events_.now());
    ++report_.jobs;
    expected_ += job.queries.size();
    due_jobs_.push_back(&job);
    if (!halted_ && !batch_.active) ensure_dispatch();
}

RunReport Engine::run(const workload::Workload& workload) {
    const util::SimTime start =
        workload.jobs.empty() ? util::SimTime::zero() : workload.jobs.front().arrival;
    begin(start, util::SimTime::max());
    events_.reset_to(start);
    start_clock(start);  // an empty workload still reports from `start`

    const std::size_t total = workload.total_queries();
    outcomes_.reserve(total);
    runtime_.reserve(total);
    for (const workload::Job& job : workload.jobs)
        events_.schedule(job.arrival, kPriArrival, node_id_.value(),
                         [this, &job] { inject_job(job); });

    while (report_.queries < total) {
        if (events_.run_one()) continue;
        // Queue drained with queries incomplete: only gated queries remain.
        if (try_unstick()) continue;
        throw std::runtime_error("Engine::run: scheduler stalled with " +
                                 std::to_string(report_.queries) + "/" +
                                 std::to_string(total) + " queries complete");
    }
    return finish();
}

RunReport Engine::finish() {
    if (!clock_started_) return RunReport{};
    account_to(end_time_);  // settle integrals up to this node's final instant

    const std::size_t completed = report_.queries;
    report_.scheduler_name = scheduler_->name();
    report_.cache_policy = cache_->policy_name();
    report_.makespan = end_time_ - start_;
    const double seconds = std::max(1e-9, report_.makespan.seconds());
    // On a shared kernel this node's disk may keep serving other nodes'
    // replica reads after its own last completion; utilisation and idle are
    // measured over the span accounting actually covered (identical to the
    // makespan on a private queue).
    const double span_seconds =
        std::max(seconds, (last_account_ - start_).seconds());
    report_.throughput_qps = static_cast<double>(completed) / seconds;
    const double busy_seconds = std::max(1e-9, span_seconds - report_.idle_time.seconds());
    report_.busy_throughput_qps = static_cast<double>(completed) / busy_seconds;
    fill_response_stats(outcomes_, report_);
    // Summed in completion order, as the spans were recorded.
    double span_sum_ms = 0.0;
    for (const double span_ms : report_.job_span_ms) span_sum_ms += span_ms;
    report_.mean_job_span_ms =
        report_.job_span_ms.empty()
            ? 0.0
            : span_sum_ms / static_cast<double>(report_.job_span_ms.size());
    report_.cache = cache_->stats();
    report_.cache_overhead_per_query_ms =
        static_cast<double>(report_.cache.policy_overhead_ns) * 1e-6 /
        std::max<std::size_t>(1, completed);
    report_.disk = store_.disk_stats();
    report_.io_depth = config_.io_depth;
    report_.compute_workers = config_.compute_workers;
    report_.peak_cpu_busy = cpu_res_.peak_busy_channels();
    report_.peak_disk_busy = disk_res_.peak_busy_channels();
    report_.eval_threads = eval_pool_ != nullptr ? eval_pool_->size() : 0;
    report_.eval_wall_ns = eval_wall_ns_.load(std::memory_order_relaxed);
    report_.disk_utilization =
        disk_res_.busy_channel_time().seconds() /
        (span_seconds * static_cast<double>(config_.io_depth));
    report_.cpu_utilization =
        cpu_res_.busy_channel_time().seconds() /
        (span_seconds * static_cast<double>(config_.compute_workers));
    report_.overlap_fraction = report_.overlap_time.seconds() / span_seconds;
    report_.faults = store_.fault_stats();
    // Halted means the run stopped short; a final batch that happened to
    // cross the death instant while finishing the workload is a completed
    // run.
    report_.halted = halted_ && completed < expected_;
    report_.final_alpha = scheduler_->current_alpha();
    if (const sched::GatingStats* gs = scheduler_->gating_stats()) report_.gating = *gs;
    if (const sched::QosStats* qs = scheduler_->qos_stats()) report_.qos = *qs;
    if (prefetcher_ != nullptr) report_.prefetch = prefetcher_->stats();
    if (config_.timeline_window_s > 0.0) {
        // Flush the final partial window.
        const util::SimTime window =
            util::SimTime::from_seconds(config_.timeline_window_s);
        const util::SimTime last_boundary = timeline_next_ - window;
        if (window_completions_ > 0)
            flush_timeline_window(end_time_, (end_time_ - last_boundary).seconds());
    }
    return std::move(report_);
}

}  // namespace jaws::core
