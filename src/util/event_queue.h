// Discrete-event simulation kernel.
//
// The engine used to advance one implicit timeline (`clock_.advance(io)` then
// `clock_.advance(compute)`), which structurally serialises I/O and compute
// and can never reproduce the paper's production behaviour: a SQL Server node
// over a RAID-5 stripe set where atom reads proceed concurrently with batch
// evaluation (Sec. III, Fig. 7). This header extracts the two pieces a real
// simulator core needs, following LifeRaft's and Dell'Amico's job-scheduling
// simulators (PAPERS.md):
//
//   * EventQueue — a deterministic time-ordered event queue. Events fire in
//     (time, priority, source, insertion order) order: ties at the same
//     virtual instant are broken first by an explicit priority class (so e.g.
//     a node death always precedes a same-instant arrival), then by the
//     scheduling *source* (the cluster node id when N nodes share one queue —
//     without this, cross-node ties would depend on construction order), and
//     finally FIFO by insertion, which makes every run bit-reproducible.
//   * SimResource — a modelled server with a configurable number of parallel
//     service channels and a priority waiting queue (a disk with `io_depth`
//     RAID channels, a CPU pool with `compute_workers` workers). Jobs marked
//     preemptible (speculative prefetch reads) can be cancelled mid-service
//     when a non-preemptible job (a demand read) needs the channel.
//
// All time is virtual (util::SimTime); running the kernel never sleeps.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/sim_time.h"
#include "util/slot_index.h"

namespace jaws::util {

/// Perturbation of the same-tick tie-break, for the schedule-perturbation
/// determinism checker (tests/perturbation_test.cpp). The documented
/// ordering contract fixes (time, priority, source) — insertion order is
/// only the *arbitrary-but-stable* last resort for commutative event
/// classes. A correct kernel client therefore produces bit-identical
/// reports under any permutation of that last component for commutative
/// classes, under any constant offset of the raw event ids, and under any
/// tombstone entries disturbing the heap's internal layout. The checker
/// runs workloads under several such perturbations and asserts digest
/// equality; a client that secretly depends on insertion order, raw id
/// values or heap layout is flushed out. Service *completions* are
/// order-bearing (RunReport::sample_digest folds in completion-event
/// order) and must not be listed in `permute_priorities`.
struct TiePerturbation {
    /// XOR-ed into the insertion rank of permuted classes (a bijection, so
    /// same-tick ties are permuted, never collided).
    std::uint64_t salt = 0;
    /// Bit p set => permute the insertion-order tie-break of priority class
    /// p (engine classes: kPriArrival, kPriVisibility, kPriDispatch are
    /// commutative; kPriService completions are not).
    std::uint64_t permute_priorities = 0;
    /// Constant offset applied to every issued EventId.
    std::uint64_t id_offset = 0;
    /// Every Nth schedule also pushes a handler-less tombstone entry,
    /// perturbing heap layout without firing anything (0 = off).
    std::uint32_t tombstone_stride = 0;
};

/// Deterministic time-ordered event queue with stable FIFO tie-breaking.
///
/// Pending handlers live in a util::SlotPool, so once the pool has grown to
/// a run's peak pending count, scheduling an event allocates nothing (the handler is a std::function; the kernel's own
/// lambdas fit its small buffer). An EventId encodes the event's (slot,
/// generation) pair, shifted by TiePerturbation::id_offset. Releasing a slot
/// (the event fired or was cancelled) bumps its generation, so the old id
/// stays dead however often the slot is reused, and cancel()/pending() index
/// the table without hashing. No issued id is ever 0, which clients use to
/// mean "no event".
///
/// Pending entries sit in a binary min-heap behind a one-entry lane. The
/// lane holds an entry that sorts before every heap entry: a new entry that
/// sorts before everything pending takes it, and the entry it displaces
/// moves into the heap. An event that the handler before it schedules to
/// fire next (an item's next CPU completion, the next read) is pushed into
/// the lane and fired from it without a heap push or pop: in perfbench that
/// is 99 % of the events of `fig10_trace` and 38 % of those of the
/// four-node `cluster_saturated`. The firing order is the same (time,
/// priority, source, tie) order.
class EventQueue {
  public:
    using EventId = std::uint64_t;
    using Handler = std::function<void()>;

    /// Current virtual time (the timestamp of the last event run).
    SimTime now() const noexcept { return now_; }

    /// Set the clock without running events (start of a run). Only valid
    /// while no events are pending.
    void reset_to(SimTime t);

    /// Install a tie-break perturbation (see TiePerturbation). Only valid
    /// on a fresh queue — before the first schedule() — so every event of
    /// the run is perturbed consistently.
    void set_perturbation(const TiePerturbation& p);

    /// Schedule `fn` at virtual time `at` (clamped to now(): the kernel
    /// cannot schedule into the past). Events at equal times fire in
    /// ascending `priority`, then ascending `source`, then in insertion
    /// order. `source` identifies the scheduling domain — the cluster node id
    /// when several nodes share one queue — so same-tick ties across nodes
    /// break deterministically by node rather than by construction order.
    /// Returns a nonzero id usable with cancel().
    EventId schedule(SimTime at, int priority, std::uint32_t source, Handler fn);

    /// Single-domain convenience: schedule with source 0.
    EventId schedule(SimTime at, int priority, Handler fn) {
        return schedule(at, priority, 0, std::move(fn));
    }

    /// Cancel a pending event. Returns false if it already ran or was
    /// cancelled. O(1); the heap entry is lazily discarded.
    bool cancel(EventId id);

    /// Whether `id` names a pending (scheduled, not yet run or cancelled)
    /// event. Audits use this to prove completion events are still live.
    bool pending(EventId id) const noexcept { return live_slot(id) != kNoSlot; }

    /// Whether any non-cancelled event is pending.
    bool empty() const noexcept { return slots_.size() == 0; }

    /// Number of pending (non-cancelled) events.
    std::size_t pending() const noexcept { return slots_.size(); }

    /// Number of pending events scheduled with `source`. The cluster kernel
    /// uses this to decide when a node is genuinely idle (nothing of its own
    /// left to fire) versus merely waiting on another node's events.
    std::size_t pending_for(std::uint32_t source) const noexcept {
        return source < pending_by_source_.size() ? pending_by_source_[source] : 0;
    }

    /// Source of the event most recently fired by run_one(). Undefined
    /// before the first event runs.
    std::uint32_t last_source() const noexcept { return last_source_; }

    /// Timestamp of the next pending event. Requires !empty().
    SimTime next_time() const;

    /// Advance the clock to the earliest pending event and run its handler.
    /// Returns false (and leaves the clock alone) when no event is pending.
    bool run_one();

    /// Exhaustive self-check (audit builds call this automatically at
    /// transitions; tests call it directly): heap order, a lane entry that
    /// sorts before the heap's top, monotone timestamps (no live entry
    /// behind the clock), exactly one live entry (lane or heap) per live slot
    /// and none for a free one, and a slot pool that audits clean.
    /// Reports through util::contract_violation; returns true when clean.
    bool audit() const;

  private:
    /// "No slot": the slot of a tombstone entry, and live_slot() of a dead id.
    static constexpr std::uint32_t kNoSlot = SlotIndex::kNone;

    struct Entry {
        SimTime at;
        int priority;
        std::uint32_t source;
        /// Insertion-order tie-break rank: the insertion sequence number
        /// (offset by TiePerturbation::id_offset), XOR-salted for priority
        /// classes permuted by the installed TiePerturbation.
        std::uint64_t tie;
        /// The event's slot and that slot's generation when it was
        /// scheduled; the entry is stale once the generation moved on.
        std::uint32_t slot;
        std::uint32_t generation;

        bool operator>(const Entry& o) const noexcept {
            if (at != o.at) return at > o.at;
            if (priority != o.priority) return priority > o.priority;
            if (source != o.source) return source > o.source;
            return tie > o.tie;
        }
    };

    /// A pending event's handler. A free slot keeps its generation, so the
    /// ids issued for it stay dead.
    struct Slot {
        Handler fn;
        std::uint32_t generation = 1;
        std::uint32_t source = 0;
    };

    /// Slot of the pending event `id` names, or kNoSlot.
    std::uint32_t live_slot(EventId id) const noexcept;
    bool stale(const Entry& e) const noexcept {
        return e.slot == kNoSlot || slots_[e.slot].generation != e.generation;
    }
    /// Return a slot to the pool: its handler must already be gone.
    void release_slot(std::uint32_t slot);
    EventId id_of(std::uint32_t slot, std::uint32_t generation) const noexcept {
        return ((std::uint64_t{generation} << 32) | slot) + perturb_.id_offset;
    }
    /// Drop cancelled and tombstone entries from the front (the lane, then
    /// the heap's top) until the next entry is live or nothing is pending.
    void drop_cancelled();
    void push_entry(const Entry& e);
    void push_heap_entry(const Entry& e);
    void pop_heap_entry();
    std::uint64_t tie_rank(std::uint64_t seq, int priority) const noexcept;

    // A min-heap kept by std::push_heap/pop_heap over a plain vector (rather
    // than std::priority_queue) so audit() can scan the pending entries.
    std::vector<Entry> heap_;
    Entry lane_{};            ///< Sorts before every heap entry while full.
    bool lane_full_ = false;
    SlotPool<Slot> slots_;  ///< Live slots are the pending events.
    // Live event count per source, indexed by source id (sources are small
    // dense node ids); grown on demand.
    std::vector<std::size_t> pending_by_source_;
    std::uint32_t last_source_ = 0;
    /// Next insertion sequence number (tombstones take one too).
    std::uint64_t next_seq_ = 0;
    SimTime now_ = SimTime::zero();
    TiePerturbation perturb_;
    std::uint64_t schedule_count_ = 0;  ///< Drives the tombstone stride.
    // Rate limiter for the automatic audits of JAWS_AUDIT_BUILD: a full
    // audit is O(pending), so auditing every transition would make large
    // audit-build runs quadratic. Unused in normal builds.
    std::uint64_t audit_tick_ = 0;
};

/// A modelled hardware resource: `channels` parallel service channels in
/// front of a priority waiting queue. Service durations are decided when
/// service *starts* (a disk read's cost depends on where that channel's head
/// is by then), and completion fires as a kernel event. Busy-channel time is
/// integrated continuously so callers can report utilisation.
class SimResource {
  public:
    /// Identifies a submitted job for cancel(); 0 is never a valid id.
    using JobId = std::uint64_t;

    /// One request. `on_start` runs when a channel begins service and returns
    /// the service duration; `on_complete` runs when service finishes.
    /// `on_abort` runs instead of `on_complete` when an *in-service* job is
    /// cancelled — preempted mid-service (preemptible jobs only) or
    /// explicitly cancel()led (any job) — with the service time *not*
    /// rendered as argument. A job cancelled while still waiting is silently
    /// discarded: its service never started, so there is nothing to unwind.
    struct Job {
        int priority = 0;         ///< Waiting-queue class; lower serves first.
        bool preemptible = false; ///< May be cancelled for a non-preemptible job.
        std::function<SimTime(std::size_t channel)> on_start;
        std::function<void(std::size_t channel)> on_complete;
        std::function<void(std::size_t channel, SimTime remaining)> on_abort;
    };

    /// `completion_priority` is the EventQueue priority class used for
    /// service-completion events; `source` tags those events' scheduling
    /// domain (the owning cluster node id on a shared queue).
    SimResource(EventQueue& events, std::size_t channels, int completion_priority,
                std::uint32_t source = 0);

    /// Scheduling domain this resource's completion events are tagged with.
    std::uint32_t source() const noexcept { return source_; }

    /// Submit a request: starts service immediately on a free channel,
    /// preempts a running preemptible job if the new job is non-preemptible
    /// and no channel is free, and queues otherwise. Returns an id usable
    /// with cancel().
    JobId submit(Job job);

    /// Cancel a submitted job: a waiting job is removed from the queue
    /// (nothing started, no callbacks); an in-service job has its completion
    /// event cancelled, its on_abort run with the unrendered remainder, and
    /// its channel immediately backfilled from the waiting queue — the
    /// straggler-cancellation path of hedged reads. Returns false when the
    /// job already completed, aborted, or was cancelled (safe to race
    /// against completion at the same virtual instant: first resolution
    /// wins, the loser is a no-op).
    bool cancel(JobId id);

    std::size_t channels() const noexcept { return channels_.size(); }
    std::size_t busy_channels() const noexcept { return busy_; }
    /// Most channels ever simultaneously in service. This is the modeled
    /// concurrency a run actually achieved — the ceiling on any real-thread
    /// speedup the engine's evaluation pool can extract from it.
    std::size_t peak_busy_channels() const noexcept { return peak_busy_; }
    std::size_t queued() const noexcept { return queued_; }
    bool has_free_channel() const noexcept { return busy_ < channels_.size(); }
    bool idle() const noexcept { return busy_ == 0 && queued() == 0; }

    /// Integral of busy channels over virtual time (channel-time), for
    /// utilisation reporting.
    SimTime busy_channel_time() const;

    /// Called immediately *before* every busy-channel-count change, while the
    /// old count is still observable (the engine uses this to integrate
    /// cross-resource overlap).
    void set_observer(std::function<void()> observer) { observer_ = std::move(observer); }

    /// Called whenever a channel goes idle with an empty waiting queue (the
    /// engine uses this to issue background prefetch reads).
    void set_idle_hook(std::function<void()> hook) { idle_hook_ = std::move(hook); }

    /// Exhaustive channel-accounting self-check: busy_ matches the per-channel
    /// flags, every busy channel's completion event is still pending and ends
    /// at or after now, the waiting classes are in ascending priority order
    /// and their sizes sum to queued(), and the busy-time integral never
    /// runs ahead of wall (virtual) time. Reports
    /// through util::contract_violation; returns true when clean.
    bool audit() const;

  private:
    struct Channel {
        bool busy = false;
        bool preemptible = false;
        SimTime started;
        SimTime duration;
        EventQueue::EventId completion = 0;
        JobId id = 0;
        Job job;
    };

    struct Waiting {
        JobId id = 0;
        Job job;
    };

    /// The waiting jobs of one priority class, in FIFO order: a vector
    /// consumed from `head`. Served jobs are compacted away once they
    /// outnumber the waiting ones, and an emptied class is cleared but kept,
    /// so the storage is reused instead of freed and reallocated.
    struct WaitClass {
        int priority = 0;
        std::vector<Waiting> jobs;
        std::size_t head = 0;

        std::size_t size() const noexcept { return jobs.size() - head; }
        Waiting pop();
    };

    void start_on(std::size_t channel, JobId id, Job&& job);
    void finish(std::size_t channel);
    /// Pull the next waiting job (if any) onto the now-free `channel`.
    void backfill(std::size_t channel);
    void note_busy_change(std::size_t delta_sign);

    EventQueue& events_;
    int completion_priority_;
    std::uint32_t source_;
    std::vector<Channel> channels_;
    std::vector<WaitClass> waiting_;  ///< Ascending priority; emptied classes kept.
    std::size_t queued_ = 0;          ///< Jobs waiting across all classes.
    JobId next_job_id_ = 1;
    std::size_t busy_ = 0;
    std::size_t peak_busy_ = 0;
    // Busy-channel integral: accumulated up to last_change_, plus busy_ *
    // (now - last_change_) on read.
    mutable SimTime busy_integral_;
    SimTime last_change_;
    std::function<void()> observer_;
    std::function<void()> idle_hook_;
};

}  // namespace jaws::util
