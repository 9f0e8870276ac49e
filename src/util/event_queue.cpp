#include "util/event_queue.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "util/contracts.h"

namespace jaws::util {

// --------------------------------------------------------------------------
// EventQueue
// --------------------------------------------------------------------------

void EventQueue::reset_to(SimTime t) {
    if (!empty()) throw std::logic_error("EventQueue::reset_to: events still pending");
    heap_.clear();  // drop cancelled tombstones
    lane_full_ = false;
    now_ = t;
}

void EventQueue::set_perturbation(const TiePerturbation& p) {
    if (!empty() || next_seq_ != 0 || schedule_count_ != 0)
        throw std::logic_error(
            "EventQueue::set_perturbation: queue already issued events");
    perturb_ = p;
}

std::uint32_t EventQueue::live_slot(EventId id) const noexcept {
    const std::uint64_t raw = id - perturb_.id_offset;
    const auto slot = static_cast<std::uint32_t>(raw);
    if (slot >= slots_.slots() || !slots_.live(slot)) return kNoSlot;
    return slots_[slot].generation == static_cast<std::uint32_t>(raw >> 32) ? slot : kNoSlot;
}

void EventQueue::release_slot(std::uint32_t slot) {
    Slot& s = slots_[slot];
    assert(!s.fn);
    assert(s.source < pending_by_source_.size() && pending_by_source_[s.source] > 0);
    --pending_by_source_[s.source];
    ++s.generation;  // every id issued for this slot so far is now dead
    slots_.release(slot);
}

void EventQueue::push_entry(const Entry& e) {
    if (lane_full_ ? lane_ > e : heap_.empty() || heap_.front() > e) {
        // `e` sorts before everything pending: it takes the lane, and the
        // entry it displaces (which sorts before the whole heap) moves in.
        if (lane_full_) push_heap_entry(lane_);
        lane_ = e;
        lane_full_ = true;
        return;
    }
    push_heap_entry(e);
}

void EventQueue::push_heap_entry(const Entry& e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<Entry>{});
}

void EventQueue::pop_heap_entry() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<Entry>{});
    heap_.pop_back();
}

EventQueue::EventId EventQueue::schedule(SimTime at, int priority,
                                         std::uint32_t source, Handler fn) {
    if (at < now_) at = now_;  // the past is immutable; fire as soon as possible
    const std::uint32_t slot = slots_.acquire();
    Slot& s = slots_[slot];
    // Skip the one generation whose offset id would read as "no event".
    if (id_of(slot, s.generation) == 0) ++s.generation;
    s.fn = std::move(fn);
    s.source = source;
    if (source >= pending_by_source_.size()) pending_by_source_.resize(source + 1, 0);
    ++pending_by_source_[source];
    push_entry(Entry{at, priority, source, tie_rank(next_seq_++, priority), slot,
                     s.generation});
    if (perturb_.tombstone_stride != 0 &&
        ++schedule_count_ % perturb_.tombstone_stride == 0) {
        // A slot-less entry: dropped silently when it surfaces, but it
        // disturbs the heap's internal layout until then — flushing out any
        // client observably coupled to that layout.
        push_entry(Entry{at, priority, source, tie_rank(next_seq_++, priority), kNoSlot, 0});
    }
    JAWS_AUDIT((++audit_tick_ & 63) == 0 && audit());
    return id_of(slot, slots_[slot].generation);
}

std::uint64_t EventQueue::tie_rank(std::uint64_t seq, int priority) const noexcept {
    const std::uint64_t rank = seq + perturb_.id_offset;
    const bool permuted = priority >= 0 && priority < 64 &&
                          ((perturb_.permute_priorities >> priority) & 1) != 0;
    return permuted ? rank ^ perturb_.salt : rank;
}

bool EventQueue::cancel(EventId id) {
    const std::uint32_t slot = live_slot(id);
    if (slot == kNoSlot) return false;
    slots_[slot].fn = nullptr;
    release_slot(slot);
    return true;
}

void EventQueue::drop_cancelled() {
    if (lane_full_) {
        if (!stale(lane_)) return;
        lane_full_ = false;  // the heap's top is next
    }
    while (!heap_.empty() && stale(heap_.front())) pop_heap_entry();
}

SimTime EventQueue::next_time() const {
    const_cast<EventQueue*>(this)->drop_cancelled();
    if (lane_full_) return lane_.at;
    assert(!heap_.empty());
    return heap_.front().at;
}

bool EventQueue::run_one() {
    drop_cancelled();
    if (!lane_full_ && heap_.empty()) return false;
    const Entry top = lane_full_ ? lane_ : heap_.front();
    if (lane_full_)
        lane_full_ = false;
    else
        pop_heap_entry();
    // Move the handler out before releasing: it may schedule into this slot.
    Handler fn = std::move(slots_[top.slot].fn);
    slots_[top.slot].fn = nullptr;
    release_slot(top.slot);
    last_source_ = top.source;
    now_ = top.at;  // monotone: entries are never scheduled before now_
    JAWS_AUDIT((++audit_tick_ & 63) == 0 && audit());
    fn();
    return true;
}

bool EventQueue::audit() const {
    bool ok = JAWS_AUDIT_CHECK(std::is_heap(heap_.begin(), heap_.end(), std::greater<Entry>{}),
                               "EventQueue: heap order violated");
    ok &= JAWS_AUDIT_CHECK(!lane_full_ || heap_.empty() || heap_.front() > lane_,
                           "EventQueue: lane entry does not sort before the heap");
    std::vector<std::uint8_t> entries(slots_.slots(), 0);  // live entries per slot
    const auto count = [&](const Entry& e) {
        if (e.slot == kNoSlot) return;  // tombstone
        const bool in_pool = JAWS_AUDIT_CHECK(e.slot < slots_.slots(),
                                              "EventQueue: entry names a slot past the pool");
        ok &= in_pool;
        if (!in_pool) return;
        const Slot& s = slots_[e.slot];
        if (!slots_.live(e.slot) || s.generation != e.generation) return;  // cancelled
        ok &= JAWS_AUDIT_CHECK(++entries[e.slot] == 1,
                               "EventQueue: two live entries for one event");
        ok &= JAWS_AUDIT_CHECK(e.at >= now_, "EventQueue: pending event scheduled behind the clock");
        ok &= JAWS_AUDIT_CHECK(s.source == e.source,
                               "EventQueue: entry and slot disagree on source");
    };
    if (lane_full_) count(lane_);
    for (const Entry& e : heap_) count(e);
    // Every live slot needs exactly one live entry, or it can never fire.
    for (std::uint32_t i = 0; i < slots_.slots(); ++i)
        if (slots_.live(i))
            ok &= JAWS_AUDIT_CHECK(entries[i] == 1,
                                   "EventQueue: dangling handler with no entry");
    ok &= slots_.audit();
    std::size_t by_source = 0;
    for (const std::size_t n : pending_by_source_) by_source += n;
    ok &= JAWS_AUDIT_CHECK(by_source == pending(),
                           "EventQueue: per-source pending counts out of sync");
    return ok;
}

// --------------------------------------------------------------------------
// SimResource
// --------------------------------------------------------------------------

SimResource::SimResource(EventQueue& events, std::size_t channels,
                         int completion_priority, std::uint32_t source)
    : events_(events), completion_priority_(completion_priority), source_(source) {
    if (channels == 0)
        throw std::invalid_argument("SimResource: at least one channel required");
    channels_.resize(channels);
    last_change_ = events_.now();
}

SimResource::Waiting SimResource::WaitClass::pop() {
    assert(head < jobs.size());
    Waiting next = std::move(jobs[head++]);
    if (head == jobs.size()) {
        jobs.clear();
        head = 0;
    } else if (head >= jobs.size() - head) {
        // Served jobs outnumber the waiting ones: compact (amortised O(1)).
        jobs.erase(jobs.begin(), jobs.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
    }
    return next;
}

SimTime SimResource::busy_channel_time() const {
    const SimTime now = events_.now();
    return busy_integral_ +
           (now - last_change_).scaled_by(static_cast<std::int64_t>(busy_));
}

void SimResource::note_busy_change(std::size_t delta_sign) {
    if (observer_) observer_();  // old busy count still visible to the observer
    const SimTime now = events_.now();
    busy_integral_ +=
        (now - last_change_).scaled_by(static_cast<std::int64_t>(busy_));
    last_change_ = now;
    busy_ = delta_sign ? busy_ + 1 : busy_ - 1;
    peak_busy_ = std::max(peak_busy_, busy_);
}

SimResource::JobId SimResource::submit(Job job) {
    const JobId id = next_job_id_++;
    // A free channel serves immediately.
    for (std::size_t c = 0; c < channels_.size(); ++c) {
        if (!channels_[c].busy) {
            start_on(c, id, std::move(job));
            JAWS_AUDIT(audit());
            return id;
        }
    }
    // No free channel: a non-preemptible job may evict a preemptible one
    // mid-service (a demand read cancelling a speculative prefetch).
    if (!job.preemptible) {
        for (std::size_t c = 0; c < channels_.size(); ++c) {
            Channel& ch = channels_[c];
            if (!ch.busy || !ch.preemptible) continue;
            events_.cancel(ch.completion);
            const SimTime remaining = ch.started + ch.duration - events_.now();
            Job aborted = std::move(ch.job);
            if (aborted.on_abort) aborted.on_abort(c, remaining);
            // The channel stays busy (no count change): it switches jobs.
            ch.preemptible = job.preemptible;
            ch.started = events_.now();
            ch.id = id;
            ch.job = std::move(job);
            ch.duration = ch.job.on_start ? ch.job.on_start(c) : SimTime::zero();
            const std::size_t chan = c;
            ch.completion = events_.schedule(ch.started + ch.duration,
                                             completion_priority_, source_,
                                             [this, chan] { finish(chan); });
            JAWS_AUDIT(audit());
            return id;
        }
    }
    auto cls = std::find_if(waiting_.begin(), waiting_.end(), [&](const WaitClass& c) {
        return c.priority >= job.priority;
    });
    if (cls == waiting_.end() || cls->priority != job.priority) {
        cls = waiting_.insert(cls, WaitClass{});
        cls->priority = job.priority;
    }
    cls->jobs.push_back(Waiting{id, std::move(job)});
    ++queued_;
    JAWS_AUDIT(audit());
    return id;
}

bool SimResource::cancel(JobId id) {
    // In service: unwind the channel as finish() would, but run on_abort with
    // the unrendered tail instead of on_complete.
    for (std::size_t c = 0; c < channels_.size(); ++c) {
        Channel& ch = channels_[c];
        if (!ch.busy || ch.id != id) continue;
        events_.cancel(ch.completion);
        const SimTime remaining = ch.started + ch.duration - events_.now();
        note_busy_change(0);
        ch.busy = false;
        Job aborted = std::move(ch.job);
        backfill(c);
        JAWS_AUDIT(audit());
        if (aborted.on_abort) aborted.on_abort(c, remaining);
        if (has_free_channel() && queued_ == 0 && idle_hook_) idle_hook_();
        return true;
    }
    // Still waiting: remove silently (service never started).
    for (WaitClass& cls : waiting_) {
        const auto first = cls.jobs.begin() + static_cast<std::ptrdiff_t>(cls.head);
        const auto w = std::find_if(first, cls.jobs.end(),
                                    [id](const Waiting& x) { return x.id == id; });
        if (w == cls.jobs.end()) continue;
        cls.jobs.erase(w);
        if (cls.size() == 0) {
            cls.jobs.clear();
            cls.head = 0;
        }
        --queued_;
        JAWS_AUDIT(audit());
        return true;
    }
    return false;  // already completed, aborted or cancelled
}

void SimResource::start_on(std::size_t channel, JobId id, Job&& job) {
    Channel& ch = channels_[channel];
    assert(!ch.busy);
    note_busy_change(1);
    ch.busy = true;
    ch.preemptible = job.preemptible;
    ch.started = events_.now();
    ch.id = id;
    ch.job = std::move(job);
    ch.duration = ch.job.on_start ? ch.job.on_start(channel) : SimTime::zero();
    ch.completion = events_.schedule(ch.started + ch.duration, completion_priority_,
                                     source_, [this, channel] { finish(channel); });
}

void SimResource::backfill(std::size_t channel) {
    // Serve the waiting queue before running the finished job's handler so a
    // job submitted *from* the handler cannot jump ahead of queued work.
    if (queued_ == 0) return;
    for (WaitClass& cls : waiting_) {
        if (cls.size() == 0) continue;
        Waiting next = cls.pop();
        --queued_;
        start_on(channel, next.id, std::move(next.job));
        break;
    }
}

void SimResource::finish(std::size_t channel) {
    Channel& ch = channels_[channel];
    assert(ch.busy);
    note_busy_change(0);
    ch.busy = false;
    Job done = std::move(ch.job);
    backfill(channel);
    JAWS_AUDIT(audit());
    if (done.on_complete) done.on_complete(channel);
    if (has_free_channel() && queued_ == 0 && idle_hook_) idle_hook_();
}

bool SimResource::audit() const {
    const SimTime now = events_.now();
    bool ok = true;
    std::size_t busy_count = 0;
    for (const Channel& ch : channels_) {
        if (!ch.busy) continue;
        ++busy_count;
        ok &= JAWS_AUDIT_CHECK(events_.pending(ch.completion),
                               "SimResource: busy channel without a live completion event");
        ok &= JAWS_AUDIT_CHECK(ch.started + ch.duration >= now,
                               "SimResource: busy channel's service already elapsed");
        ok &= JAWS_AUDIT_CHECK(ch.started <= now,
                               "SimResource: channel service starts in the future");
    }
    ok &= JAWS_AUDIT_CHECK(busy_count == busy_,
                           "SimResource: busy count out of sync with channel flags");
    ok &= JAWS_AUDIT_CHECK(peak_busy_ >= busy_ && peak_busy_ <= channels_.size(),
                           "SimResource: peak busy-channel watermark out of range");
    std::size_t waiting = 0;
    for (std::size_t i = 0; i < waiting_.size(); ++i) {
        const WaitClass& cls = waiting_[i];
        ok &= JAWS_AUDIT_CHECK(i == 0 || waiting_[i - 1].priority < cls.priority,
                               "SimResource: waiting classes out of priority order");
        ok &= JAWS_AUDIT_CHECK(cls.head < cls.jobs.size() || (cls.head == 0 && cls.jobs.empty()),
                               "SimResource: drained waiting class not reset");
        waiting += cls.size();
    }
    ok &= JAWS_AUDIT_CHECK(waiting == queued_,
                           "SimResource: waiting count out of sync with the classes");
    // Work only queues while every channel is busy (submit() drains free
    // channels first; finish() backfills from the queue).
    if (queued() > 0)
        ok &= JAWS_AUDIT_CHECK(busy_ == channels_.size(),
                               "SimResource: jobs waiting while a channel is free");
    ok &= JAWS_AUDIT_CHECK(last_change_ <= now,
                           "SimResource: busy integral accounted ahead of the clock");
    ok &= JAWS_AUDIT_CHECK(busy_integral_ >= SimTime::zero(),
                           "SimResource: negative busy-time integral");
    return ok;
}

}  // namespace jaws::util
