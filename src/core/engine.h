// The JAWS engine: one database node's full stack (paper Fig. 7).
//
// Wires the query pre-processor, workload manager/scheduler, buffer cache and
// atom store together and drives a workload to completion on a discrete-event
// kernel (util::EventQueue). The engine models the node as two queued
// resources: a disk with `EngineConfig::io_depth` service channels and a CPU
// pool with `EngineConfig::compute_workers` workers. Demand reads, retry
// backoffs, batch evaluation, query arrivals and visibility events are all
// events on one deterministic queue, so I/O genuinely overlaps compute: while
// one batch item's sub-queries evaluate on the CPU pool, the next items' atom
// reads proceed on the disk channels (the paper's production behaviour — a
// SQL Server node over a RAID stripe set — rather than a strictly serial
// read-then-evaluate loop).
//
// With io_depth = 1 and compute_workers = 1 the pipeline window forces the
// exact historical serial order (read, evaluate, next read), reproducing the
// pre-kernel engine's reports bit-for-bit (see tests/serial_equivalence_test).
//
// Real-thread evaluation (EvalSpec): on materialised runs the engine
// dispatches each sub-query's actual interpolation onto a util::ThreadPool
// when its modeled T_m service *starts* and joins the result when the modeled
// service *completes*. The modeled CPU channels stay authoritative for
// virtual time — the pool only changes wall-clock time — and results are
// reduced strictly in virtual completion-event order, so the trace, the
// RunReport and every sample digest are bit-identical to inline evaluation
// for any worker count (tests/parallel_equivalence_test). At most
// `compute_workers` pool tasks are in flight, because each one is owned by an
// in-service modeled channel.
//
// Ordered jobs' data dependencies are enforced here — a query becomes
// *visible* to the scheduler only when its predecessor has completed and the
// user's think time has elapsed, exactly the dynamics of a live
// particle-tracking experiment.
//
// One lifecycle drives every engine: begin(origin, halt_at) arms the node,
// inject_job() delivers each job at its arrival instant, and finish() builds
// the report. run() is that lifecycle on the engine's own queue: one arrival
// event per job, no halt, and a loop until every query has completed. The
// unified cluster kernel instead constructs its engines over one *shared*
// EventQueue with a node id: every event and resource completion is then
// tagged with that id (the queue's cross-node tie-break), the kernel injects
// jobs at its routing events, hands each node its death time through
// begin(), and demand/hedge reads may be routed to another node's store and
// disk through a storage::ReplicaRouter.
//
// An Engine instance executes one workload once; construct a fresh engine
// per experimental configuration (they are cheap — the dataset is lazy).
#pragma once

#include <atomic>
#include <cassert>
#include <future>
#include <memory>
#include <queue>
#include <span>
#include <vector>

#include "cache/buffer_cache.h"
#include "core/config.h"
#include "core/metrics.h"
#include "sched/scheduler.h"
#include "storage/atom_store.h"
#include "storage/database_node.h"
#include "storage/replica_router.h"
#include "util/event_queue.h"
#include "util/sim_time.h"
#include "util/slot_index.h"
#include "util/typed_id.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "workload/job.h"

namespace jaws::core {

/// Single-node engine.
class Engine {
  public:
    /// Same-instant event ordering (EventQueue priority classes): a node
    /// death fires before anything else at its instant; resource completions
    /// and retries come before new arrivals; arrivals before visibility
    /// wake-ups; and the (deduplicated) dispatch pass runs last, once the
    /// instant's admissions have all been buffered. Public because the
    /// unified cluster kernel schedules its routing and death events in the
    /// same classes.
    static constexpr int kPriHalt = 0;
    static constexpr int kPriService = 1;
    static constexpr int kPriArrival = 2;
    static constexpr int kPriVisibility = 3;
    static constexpr int kPriDispatch = 4;

    explicit Engine(const EngineConfig& config);

    /// Shared-kernel construction: the engine schedules everything on
    /// `events` (which it does not own) tagged with source `node_id`; the
    /// cluster kernel drives the lifecycle below instead of run().
    Engine(const EngineConfig& config, util::EventQueue& events,
           util::NodeIndex node_id);

    /// Execute `workload` to completion on the engine's own queue and
    /// report: begin() at the first arrival with no halt, one arrival event
    /// per job calling inject_job(), then finish() once every query has
    /// completed. The workload must have jobs sorted by arrival time (the
    /// generator guarantees it). May be called once per engine.
    RunReport run(const workload::Workload& workload);

    // --- lifecycle (run() and the unified cluster kernel) -----------------
    /// Arm this node: pins accounting and the timeline-window origin to
    /// `origin` (on a shared kernel every node gets the cluster's, so their
    /// windows align for merging) and schedules the node-death halt at
    /// `halt_at` (SimTime::max() = the node never dies). The node's own
    /// clock (makespan origin) starts at its first injected job.
    void begin(util::SimTime origin, util::SimTime halt_at);
    /// Deliver a job arriving at the current virtual instant. `job` must
    /// outlive the run. Grows the expected-query count, then buffers the job
    /// for admission by the next dispatch pass.
    void inject_job(const workload::Job& job);
    /// Settle accounting and build this node's report. Call once, at the
    /// end of the run. A node that never received a job (and was not
    /// started by run()) reports an empty (default) RunReport.
    RunReport finish();

    /// Whether every query injected so far has completed.
    bool done() const noexcept { return report_.queries >= expected_; }
    /// Whether the clock started (a first job was injected / run() began).
    bool started() const noexcept { return clock_started_; }
    /// Whether the node-death halt fired.
    bool halted() const noexcept { return halted_; }
    /// Whether the node is quiescent between batches with queries pending —
    /// the only state where a drained event queue implies a scheduler gate
    /// (vs. waiting on another node's resource completions).
    bool idle_stuck() const noexcept {
        return clock_started_ && !halted_ && report_.queries < expected_ && !batch_.active;
    }
    /// Ask the scheduler to force-release gated queries and redispatch.
    /// Returns whether anything was released.
    bool try_unstick();
    /// Callback fired once when the node halts with no batch in flight (its
    /// in-flight batch at the death instant is allowed to complete first) —
    /// the cluster kernel's failover hook.
    void set_halt_drained(std::function<void()> fn) { halt_drained_ = std::move(fn); }
    /// Cross-node read routing; null (the default) serves every read locally.
    void set_replica_router(storage::ReplicaRouter* router) { router_ = router; }

    std::size_t completed() const noexcept { return report_.queries; }
    std::size_t expected() const noexcept { return expected_; }
    util::NodeIndex node_id() const noexcept { return node_id_; }
    /// Modeled disk-queue depth (in-service + waiting), the router's
    /// shallowest-replica metric.
    std::size_t disk_load() const noexcept {
        return disk_res_.busy_channels() + disk_res_.queued();
    }
    /// The modeled disk this node's reads contend on (replica read target).
    util::SimResource& disk_resource() noexcept { return disk_res_; }

    /// Per-query completion records of the finished run (for distribution
    /// plots and tests). Valid after run().
    const std::vector<QueryOutcome>& outcomes() const noexcept { return outcomes_; }

    /// Component access (tests, examples).
    const cache::BufferCache& buffer_cache() const noexcept { return *cache_; }
    storage::AtomStore& store() noexcept { return store_; }
    sched::Scheduler& scheduler() noexcept { return *scheduler_; }

  private:
    Engine(const EngineConfig& config, util::EventQueue* shared_events,
           util::NodeIndex node_id);

    /// Oracle that forwards to the scheduler's workload manager once both
    /// exist (breaks the cache <-> scheduler construction cycle).
    class OracleRelay final : public cache::UtilityOracle {
      public:
        void set(const cache::UtilityOracle* target) noexcept { target_ = target; }
        double atom_utility(const storage::AtomId& atom) const override {
            return target_ != nullptr ? target_->atom_utility(atom) : 0.0;
        }
        double timestep_mean_utility(std::uint32_t t) const override {
            return target_ != nullptr ? target_->timestep_mean_utility(t) : 0.0;
        }

      private:
        const cache::UtilityOracle* target_ = nullptr;
    };

    struct QueryRuntime {
        const workload::Query* query = nullptr;
        const workload::Job* job = nullptr;
        std::size_t outstanding = 0;  ///< Sub-queries not yet executed.
        std::uint64_t failed = 0;     ///< Sub-queries abandoned on dead atoms.
        util::SimTime visible_at;
        std::uint64_t samples_evaluated = 0;  ///< Interpolated samples so far.
        std::uint64_t sample_digest = kFnvOffset;  ///< FNV-1a over their bytes.
        std::uint64_t hedges = 0;     ///< Hedge reads charged to this query.
        bool visible = false;
        bool deadline_missed = false; ///< Exhausted its deadline budget.
    };

    struct VisibilityEvent {
        util::SimTime at;
        workload::QueryId query;

        bool operator>(const VisibilityEvent& o) const noexcept {
            return at == o.at ? query > o.query : at > o.at;
        }
    };

    /// Execution state of one batch item as it flows through the pipeline:
    /// demand read (with retries) -> kernel-support read -> per-sub-query
    /// evaluation on the CPU pool.
    struct ItemRun {
        sched::BatchItem item;  ///< Its sub-queries live in ActiveBatch::work.
        std::size_t attempt = 1;       ///< Demand-read attempts so far.
        double backoff_ms = 0.0;       ///< Next retry delay (pre-cap).
        storage::ReadResult read;      ///< Stashed by the disk job's on_start.
        storage::ReadRoute read_route;   ///< Where the primary read is served.
        storage::ReadRoute hedge_route;  ///< Where the hedge read is served.
        /// The atom's data (null on descriptor-only runs), held from the
        /// cache hit or successful read until the item is evaluated: another
        /// in-flight read may evict the atom from the cache meanwhile.
        std::shared_ptr<const field::VoxelBlock> payload;
        std::size_t next_sub = 0;      ///< Next sub-query to evaluate.
        /// Runtime slot of the next_sub's query, found when its CPU service
        /// starts and read back by compute_done().
        util::SlotIndex::Slot runtime_slot = util::SlotIndex::kNone;
        // Hedging state (all zero/idle unless HedgeSpec::enabled). The demand
        // phase is active while read_job or retry_event is live; the trigger
        // and hedge are settled — cancelled or resolved — on every exit from
        // that phase, so none of these can dangle into evaluation.
        util::SimResource::JobId read_job = 0;       ///< Outstanding primary read.
        util::EventQueue::EventId retry_event = 0;   ///< Pending backoff wake-up.
        util::EventQueue::EventId hedge_trigger = 0; ///< Pending hedge trigger.
        util::SimResource::JobId hedge_job = 0;      ///< Outstanding hedge read.
        storage::ReadResult hedge_read;  ///< Stashed by the hedge's on_start.
        // Per-event staging for the current sub-query's real evaluation:
        // exactly one of these carries the result between the modeled
        // service's on_start and compute_done()'s reduction step.
        bool eval_on_pool = false;     ///< Result pending on the eval pool.
        std::future<storage::ExecOutcome> pending_eval;  ///< Pool-side result.
        storage::ExecOutcome staged_eval;  ///< Inline-evaluated result.
    };

    /// The scheduler batch in flight (when `active`). Items are issued into
    /// the pipeline in batch order; at most io_depth items are in flight
    /// (issued but not yet compute-complete) at once, so io_depth = 1
    /// degenerates to the strict serial order of the pre-kernel engine. The
    /// engine keeps one for the whole run: the scheduler refills `work` and
    /// `items` is reset per batch, so their storage is reused.
    struct ActiveBatch {
        sched::Batch work;  ///< What the scheduler dispatched.
        std::vector<ItemRun> items;  ///< One per work item.
        std::size_t next_issue = 0;
        std::size_t finished = 0;
        std::size_t in_flight = 0;
        bool active = false;
    };

    std::unique_ptr<cache::ReplacementPolicy> make_policy();
    std::unique_ptr<sched::Scheduler> make_scheduler();

    // --- admission (arrivals and visibility) ----------------------------
    /// With materialised data the interpolation kernel must fit inside an
    /// atom's ghost region (the descriptor-only path models spill as support
    /// reads; the real data path cannot). Throws std::invalid_argument
    /// naming grid.ghost and the offending order instead of reading out of
    /// bounds. No-op when materialize_data is off.
    void require_kernel_fit(const workload::Job& job) const;
    void submit_job(const workload::Job& job);
    void make_visible(workload::QueryId id);
    /// Record a future visibility event and schedule a kernel wake-up for it
    /// (due events are admitted by the next dispatch pass instead).
    void push_visibility(util::SimTime at, workload::QueryId id);
    /// Admit every job and visibility event due at the current virtual time,
    /// in the pre-kernel engine's order: buffered arrivals first (which may
    /// push fresh visibility events), then the visibility queue by (at, id).
    void admit_due();
    /// Schedule a dispatch pass at the current instant (deduplicated).
    void ensure_dispatch();
    void on_dispatch();

    // --- batch pipeline --------------------------------------------------
    /// Start the batch the scheduler just wrote into batch_.work.
    void start_batch();
    /// The sub-queries of batch item `it`.
    std::span<sched::SubQuery> subqueries_of(const ItemRun& it) noexcept {
        return batch_.work.subqueries_of(it.item);
    }
    /// Issue batch items into the pipeline while the in-flight window
    /// (io_depth) has room.
    void issue_more();
    void issue_item(std::size_t idx);
    void submit_demand_read(std::size_t idx);
    void demand_read_done(std::size_t idx);

    // --- hedged reads & deadline budgets ---------------------------------
    /// Current hedge trigger delay: a multiple of the EWMA of recent
    /// successful demand-read service times (T_b estimate until the EWMA is
    /// primed). Depends only on virtual-time observations, so hedge
    /// decisions are bit-deterministic.
    util::SimTime hedge_trigger_delay() const;
    /// Arm the hedge trigger for item `idx` when hedging is enabled: a
    /// kernel event that duplicates the demand read if it is still
    /// unresolved by then.
    void arm_hedge_trigger(std::size_t idx);
    /// Trigger fired: issue the duplicate read unless the primary already
    /// resolved, the outstanding-hedge cap is reached, or every owning
    /// query's hedge budget is spent.
    void maybe_issue_hedge(std::size_t idx);
    /// The hedge read finished: a failed hedge is dropped (the primary path
    /// continues); a successful one wins the race — the primary's read or
    /// pending backoff is cancelled and evaluation proceeds on hedge data.
    void hedge_done(std::size_t idx);
    /// Settle any hedge machinery of `idx` (pending trigger, outstanding
    /// hedge read) because the demand phase ended without the hedge winning.
    void cancel_hedge_machinery(std::size_t idx);
    /// Refund the unrendered tail of a cancelled read, split between the
    /// serving disk's service-time and fault-delay ledgers so the two stay
    /// disjoint. The route names the disk model that rendered the read.
    void refund_read_tail(const storage::ReadRoute& route,
                          const storage::ReadResult& read, util::SimTime remaining);
    /// The local (serve-everything-here) route used when no router is set.
    storage::ReadRoute self_route() noexcept {
        return storage::ReadRoute{&store_, &disk_res_, node_id_};
    }
    /// Abandon sub-queries of item `idx` whose queries are past the deadline
    /// budget (they complete degraded with what they have). Returns whether
    /// any sub-queries remain worth retrying for.
    bool drop_expired_subqueries(ItemRun& it);
    /// Charge the cold kernel-support ghost reads of item `idx` as one disk
    /// job, then begin evaluation.
    void proceed_supports(std::size_t idx);
    void begin_compute(std::size_t idx);
    void submit_compute(std::size_t idx);
    void compute_done(std::size_t idx);
    void item_finished(std::size_t idx);
    void end_batch();

    /// Insert a freshly read atom and propagate residency changes to the
    /// scheduler (and the prefetcher's accuracy accounting when enabled).
    void insert_into_cache(const storage::AtomId& atom,
                           std::shared_ptr<const field::VoxelBlock> data);
    /// Abandon sub-queries whose atom is unreadable: their owning queries
    /// lose those positions and complete *degraded* when nothing else is
    /// outstanding.
    void fail_subqueries(std::span<const sched::SubQuery> subs);
    /// Fail whatever the scheduler still queues against the permanently bad
    /// `atom`.
    void purge_dead_atom(const storage::AtomId& atom);
    void complete_query(QueryRuntime& runtime);

    /// Issue speculative trajectory reads onto idle disk channels (true
    /// background I/O: runs whenever a channel is free and no demand read is
    /// waiting; a later demand read preempts it mid-service).
    void try_issue_prefetch();

    /// Integrate resource-busy/overlap/idle time up to `now`. Called (via
    /// SimResource observers) immediately before every busy-channel-count
    /// change and around batch transitions.
    void account_to(util::SimTime now);
    void account_tick();

    /// Start the node's clock at `t` (the makespan origin; accounting never
    /// rewinds past begin()'s origin).
    void start_clock(util::SimTime t);
    /// Fire the halt-drained hook once the halt took effect with no batch in
    /// flight (checked at the halt event and again at end_batch()).
    void maybe_halt_drained();

    EngineConfig config_;
    /// The engine's private queue in standalone mode; null in shared-kernel
    /// mode. Declared before every member that schedules on events_ so it is
    /// destroyed last.
    std::unique_ptr<util::EventQueue> owned_events_;
    util::EventQueue& events_;
    util::NodeIndex node_id_;
    storage::ReplicaRouter* router_ = nullptr;
    storage::AtomStore store_;
    storage::DatabaseNode db_;
    util::SimResource disk_res_;
    util::SimResource cpu_res_;
    /// Where real sub-query evaluation runs: the external pool from
    /// EvalSpec::pool, the engine-owned pool (owned_eval_pool_, declared
    /// last so it drains before the components its tasks use are torn down),
    /// or null for inline evaluation in the event handler.
    util::ThreadPool* eval_pool_ = nullptr;
    /// Real-time source for EvalSpec::wall_clock_timing (util::wall_clock_ns
    /// when on, null when off). Indirection keeps the deterministic default
    /// free of wall-clock reads.
    std::uint64_t (*eval_tick_)() = nullptr;
    OracleRelay oracle_;
    std::unique_ptr<cache::BufferCache> cache_;
    std::unique_ptr<sched::Scheduler> scheduler_;
    std::unique_ptr<sched::TrajectoryPrefetcher> prefetcher_;
    std::vector<storage::AtomId> prefetch_queue_;
    std::vector<storage::ReadResult> prefetch_read_;  ///< Per-channel stash.

    /// QueryId -> runtime state of every injected query, in injection order
    /// (a run never drops one).
    util::SlotMap<QueryRuntime> runtime_;
    /// The runtime slot of an injected query.
    util::SlotIndex::Slot runtime_slot_of(workload::QueryId id) const noexcept {
        const util::SlotIndex::Slot slot = runtime_.find(id);
        assert(slot != util::SlotIndex::kNone);
        return slot;
    }
    QueryRuntime& runtime_of(workload::QueryId id) noexcept {
        return runtime_[runtime_slot_of(id)];
    }
    std::priority_queue<VisibilityEvent, std::vector<VisibilityEvent>,
                        std::greater<VisibilityEvent>>
        visibility_;
    std::vector<const workload::Job*> due_jobs_;  ///< Arrived, not yet admitted.
    /// JobId -> queries of the job not yet complete.
    util::SlotMap<std::size_t> job_remaining_;
    std::vector<QueryOutcome> outcomes_;
    ActiveBatch batch_;
    bool dispatch_pending_ = false;
    // Scratch buffers reused across batches.
    std::vector<QueryRuntime*> payers_;        ///< maybe_issue_hedge's payers.
    std::vector<sched::SubQuery> failing_;     ///< Expired or purged sub-queries.

    /// Roll the timeline forward to cover `now`, then account one completion
    /// with the given response time (response < 0 means "no completion, just
    /// roll windows").
    void timeline_tick(util::SimTime now, double response_ms);
    void flush_timeline_window(util::SimTime window_end, double window_seconds);
    util::SimTime timeline_next_;
    std::uint64_t window_completions_ = 0;
    double window_response_ms_sum_ = 0.0;
    util::SimTime tl_disk_channel_time_;  ///< Integrals at the last flush.
    util::SimTime tl_cpu_channel_time_;
    util::SimTime tl_overlap_time_;

    /// The report under construction: the run counts straight into its
    /// fields (queries completed, jobs injected, reads, hedges, the busy and
    /// idle integrals, job spans, the timeline), and finish() adds the
    /// derived ones.
    RunReport report_;
    std::size_t expected_ = 0;  ///< Queries injected so far.
    bool halted_ = false;
    std::size_t outstanding_hedges_ = 0;
    util::Ewma read_ewma_;               ///< Successful demand-read service ms.
    /// Real nanoseconds spent inside evaluation (workers add concurrently).
    std::atomic<std::uint64_t> eval_wall_ns_{0};
    util::SimTime last_account_;  ///< Where account_tick's integrals stand.
    bool ran_ = false;

    // Lifecycle state.
    bool clock_started_ = false;
    util::SimTime start_;      ///< Makespan origin (first arrival).
    util::SimTime end_time_;   ///< Last completion / halt-drain instant.
    std::function<void()> halt_drained_;
    bool halt_drain_fired_ = false;

    /// Engine-owned evaluation pool (EvalSpec::parallel with no external
    /// pool). Deliberately the last member: its destructor drains pending
    /// tasks, which capture `this`, the executor and atom payloads — so it
    /// must run before any other member is destroyed.
    std::unique_ptr<util::ThreadPool> owned_eval_pool_;
};

}  // namespace jaws::core
