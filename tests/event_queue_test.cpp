// Tests for the discrete-event kernel (util/event_queue.h): deterministic
// event ordering with FIFO tie-breaking, cancellation, and the modeled
// multi-channel resource (service, queuing, preemption, busy-time integral).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/event_queue.h"

namespace jaws::util {
namespace {

SimTime us(std::int64_t n) { return SimTime::from_micros(n); }

TEST(EventQueue, RunsEventsInTimeOrder) {
    EventQueue q;
    std::vector<int> order;
    q.schedule(us(30), 0, [&] { order.push_back(3); });
    q.schedule(us(10), 0, [&] { order.push_back(1); });
    q.schedule(us(20), 0, [&] { order.push_back(2); });
    while (q.run_one()) {
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now().raw_micros(), 30);
}

TEST(EventQueue, EqualTimestampsFireInPriorityThenInsertionOrder) {
    EventQueue q;
    std::vector<std::string> order;
    q.schedule(us(5), 2, [&] { order.push_back("p2-first"); });
    q.schedule(us(5), 1, [&] { order.push_back("p1-first"); });
    q.schedule(us(5), 2, [&] { order.push_back("p2-second"); });
    q.schedule(us(5), 1, [&] { order.push_back("p1-second"); });
    while (q.run_one()) {
    }
    EXPECT_EQ(order, (std::vector<std::string>{"p1-first", "p1-second", "p2-first",
                                               "p2-second"}));
}

TEST(EventQueue, SameTickEventsTieBreakBySourceThenInsertion) {
    // The unified cluster kernel's determinism rule: at one (time, priority)
    // instant, events fire in (source, insertion) order regardless of the
    // order the sources interleaved their schedule() calls — node 0's events
    // before node 1's, and within a node strictly FIFO.
    EventQueue q;
    std::vector<std::string> order;
    q.schedule(us(5), 1, 2, [&] { order.push_back("n2-a"); });
    q.schedule(us(5), 1, 0, [&] { order.push_back("n0-a"); });
    q.schedule(us(5), 1, 1, [&] { order.push_back("n1-a"); });
    q.schedule(us(5), 1, 0, [&] { order.push_back("n0-b"); });
    q.schedule(us(5), 1, 2, [&] { order.push_back("n2-b"); });
    while (q.run_one()) {
    }
    EXPECT_EQ(order, (std::vector<std::string>{"n0-a", "n0-b", "n1-a", "n2-a",
                                               "n2-b"}));
}

TEST(EventQueue, PriorityStillDominatesSourceAtOneInstant) {
    // A higher-priority event of a later source fires before a lower-priority
    // event of an earlier source: the cross-node tie-break only refines
    // ordering *within* a priority class (a node death at kPriHalt must beat
    // every node's arrivals no matter whose it is).
    EventQueue q;
    std::vector<std::string> order;
    q.schedule(us(5), 2, 0, [&] { order.push_back("n0-p2"); });
    q.schedule(us(5), 1, 3, [&] { order.push_back("n3-p1"); });
    while (q.run_one()) {
    }
    EXPECT_EQ(order, (std::vector<std::string>{"n3-p1", "n0-p2"}));
}

TEST(EventQueue, PendingForTracksPerSourceCounts) {
    EventQueue q;
    const EventQueue::EventId a = q.schedule(us(10), 0, 1, [] {});
    q.schedule(us(20), 0, 1, [] {});
    q.schedule(us(30), 0, 2, [] {});
    EXPECT_EQ(q.pending_for(0), 0u);
    EXPECT_EQ(q.pending_for(1), 2u);
    EXPECT_EQ(q.pending_for(2), 1u);
    EXPECT_EQ(q.pending_for(7), 0u);  // never-seen source
    EXPECT_TRUE(q.cancel(a));
    EXPECT_EQ(q.pending_for(1), 1u);
    ASSERT_TRUE(q.run_one());  // fires the remaining source-1 event
    EXPECT_EQ(q.pending_for(1), 0u);
    EXPECT_EQ(q.pending_for(2), 1u);
    EXPECT_TRUE(q.audit());
}

TEST(EventQueue, LastSourceReportsTheFiredEventsSource) {
    EventQueue q;
    q.schedule(us(10), 0, 4, [] {});
    q.schedule(us(20), 0, 9, [] {});
    ASSERT_TRUE(q.run_one());
    EXPECT_EQ(q.last_source(), 4u);
    ASSERT_TRUE(q.run_one());
    EXPECT_EQ(q.last_source(), 9u);
}

TEST(EventQueue, SourcelessScheduleDefaultsToSourceZero) {
    // The two-argument overload used by standalone engines tags source 0, so
    // a single-source queue degenerates to the historical (time, priority,
    // insertion) order — the bit-equivalence bridge to the pre-kernel runs.
    EventQueue q;
    std::vector<int> order;
    q.schedule(us(5), 0, [&] { order.push_back(1); });
    q.schedule(us(5), 0, 0, [&] { order.push_back(2); });
    q.schedule(us(5), 0, [&] { order.push_back(3); });
    while (q.run_one()) {
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.pending_for(0), 0u);
}

TEST(EventQueue, FifoTieBreakIsStableAcrossManyEvents) {
    // Same instant, same priority: strictly insertion order, regardless of
    // how the underlying heap happens to rebalance.
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 100; ++i) q.schedule(us(7), 0, [&, i] { order.push_back(i); });
    while (q.run_one()) {
    }
    ASSERT_EQ(order.size(), 100u);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, InterleavedInsertionDoesNotChangeKeyedOrder) {
    // Two schedules of the same event set in different insertion orders run
    // in the same (time, priority) order — determinism does not depend on
    // construction history when keys are distinct.
    const std::vector<std::pair<std::int64_t, int>> keys = {
        {40, 1}, {10, 0}, {10, 2}, {25, 1}, {40, 0}, {5, 3}};
    std::vector<std::pair<std::int64_t, int>> first, second;
    {
        EventQueue q;
        for (const auto& k : keys)
            q.schedule(us(k.first), k.second, [&, k] { first.push_back(k); });
        while (q.run_one()) {
        }
    }
    {
        EventQueue q;
        for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
            const auto k = *it;
            q.schedule(us(k.first), k.second, [&, k] { second.push_back(k); });
        }
        while (q.run_one()) {
        }
    }
    EXPECT_EQ(first, second);
}

TEST(EventQueue, SchedulingIntoThePastClampsToNow) {
    EventQueue q;
    SimTime fired = SimTime::zero();
    q.schedule(us(100), 0, [&] {
        q.schedule(us(1), 0, [&] { fired = q.now(); });  // "1us" is long gone
    });
    while (q.run_one()) {
    }
    EXPECT_EQ(fired.raw_micros(), 100);
}

TEST(EventQueue, CancelledEventsDoNotFire) {
    EventQueue q;
    int fired = 0;
    const auto id = q.schedule(us(10), 0, [&] { ++fired; });
    q.schedule(us(20), 0, [&] { ++fired; });
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));  // already cancelled
    EXPECT_EQ(q.pending(), 1u);
    while (q.run_one()) {
    }
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelOnEmptyQueueIsANoOp) {
    EventQueue q;
    EXPECT_FALSE(q.cancel(0));     // nothing was ever scheduled
    EXPECT_FALSE(q.cancel(12345)); // id from nowhere
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.run_one());
    EXPECT_TRUE(q.audit());
}

TEST(EventQueue, CancelOfAlreadyFiredIdFailsAndDoesNotTouchLaterEvents) {
    EventQueue q;
    int fired = 0;
    const auto first = q.schedule(us(10), 0, [&] { ++fired; });
    q.schedule(us(20), 0, [&] { ++fired; });
    ASSERT_TRUE(q.run_one());       // fires `first`
    EXPECT_FALSE(q.pending(first));
    EXPECT_FALSE(q.cancel(first));  // already ran: reject, ids are never reused
    EXPECT_EQ(q.pending(), 1u);     // the 20us event is untouched
    while (q.run_one()) {
    }
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CancelFromInsideAHandlerSuppressesALaterEvent) {
    EventQueue q;
    std::vector<int> order;
    const auto doomed = q.schedule(us(30), 0, [&] { order.push_back(3); });
    q.schedule(us(10), 0, [&] {
        order.push_back(1);
        EXPECT_TRUE(q.cancel(doomed));
    });
    q.schedule(us(20), 0, [&] { order.push_back(2); });
    while (q.run_one()) {
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.now().raw_micros(), 20);  // the cancelled tail never advances the clock
}

TEST(EventQueue, InterleavedScheduleAndCancelPreservesDeterministicOrder) {
    // Build the same surviving event set twice — once cancelling as we go,
    // once cancelling in reverse at the end — and check both runs fire the
    // survivors in the identical (time, priority, insertion) order, with the
    // cancellations leaving no trace.
    const auto build = [](bool cancel_late, std::vector<int>& order) {
        EventQueue q;
        std::vector<EventQueue::EventId> doomed;
        for (int i = 0; i < 50; ++i) {
            const auto id =
                q.schedule(us(10 + (i * 7) % 40), i % 3, [&, i] { order.push_back(i); });
            if (i % 2 == 1) {
                doomed.push_back(id);
                if (!cancel_late) {
                    EXPECT_TRUE(q.cancel(id));
                }
            }
        }
        if (cancel_late) {
            for (auto it = doomed.rbegin(); it != doomed.rend(); ++it) {
                EXPECT_TRUE(q.cancel(*it));
            }
        }
        EXPECT_EQ(q.pending(), 25u);
        EXPECT_TRUE(q.audit());
        while (q.run_one()) {
        }
        EXPECT_TRUE(q.empty());
    };
    std::vector<int> eager, late;
    build(false, eager);
    build(true, late);
    ASSERT_EQ(eager.size(), 25u);
    EXPECT_EQ(eager, late);
    for (int i : eager) EXPECT_EQ(i % 2, 0);  // every odd event was cancelled
}

TEST(EventQueue, NextTimeSkipsCancelledEntries) {
    EventQueue q;
    const auto id = q.schedule(us(10), 0, [] {});
    q.schedule(us(50), 0, [] {});
    q.cancel(id);
    EXPECT_EQ(q.next_time().raw_micros(), 50);
}

TEST(EventQueue, RunOneOnEmptyQueueReturnsFalse) {
    EventQueue q;
    EXPECT_FALSE(q.run_one());
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ResetToSetsClockAndRejectsPendingEvents) {
    EventQueue q;
    q.reset_to(us(500));
    EXPECT_EQ(q.now().raw_micros(), 500);
    q.schedule(us(600), 0, [] {});
    EXPECT_THROW(q.reset_to(us(0)), std::logic_error);
}

TEST(EventQueue, HandlersMayScheduleFurtherEvents) {
    EventQueue q;
    std::vector<std::int64_t> times;
    q.schedule(us(10), 0, [&] {
        times.push_back(q.now().raw_micros());
        q.schedule(q.now() + us(15), 0, [&] { times.push_back(q.now().raw_micros()); });
    });
    while (q.run_one()) {
    }
    EXPECT_EQ(times, (std::vector<std::int64_t>{10, 25}));
}

// --- event ids: (slot, generation), never 0, dead once fired or cancelled ---

TEST(EventQueue, NeverIssuesIdZero) {
    // Clients (the engine's retry and hedge-trigger fields) use 0 for "no
    // event", so no schedule may return it — including the very first one,
    // and under an id offset chosen so that a plain encoding of the first
    // slot would wrap to exactly 0.
    for (const std::uint64_t offset : {std::uint64_t{0}, 0 - (std::uint64_t{1} << 32),
                                       0 - (std::uint64_t{2} << 32), std::uint64_t{1}}) {
        EventQueue q;
        TiePerturbation p;
        p.id_offset = offset;
        q.set_perturbation(p);
        int fired = 0;
        for (int round = 0; round < 100; ++round) {
            const EventQueue::EventId id = q.schedule(us(round), 0, [&] { ++fired; });
            EXPECT_NE(id, 0u) << "offset " << offset << ", round " << round;
            EXPECT_TRUE(q.pending(id));
            ASSERT_TRUE(q.run_one());
        }
        EXPECT_EQ(fired, 100);
        EXPECT_FALSE(q.pending(0));
        EXPECT_FALSE(q.cancel(0));
        EXPECT_TRUE(q.audit());
    }
}

TEST(EventQueue, DeadIdsStayDeadAfterTheirSlotIsReused) {
    for (const std::uint64_t offset : {std::uint64_t{0}, std::uint64_t{12345},
                                       std::uint64_t{1} << 40}) {
        EventQueue q;
        TiePerturbation p;
        p.id_offset = offset;
        q.set_perturbation(p);
        const EventQueue::EventId fired = q.schedule(us(1), 0, [] {});
        ASSERT_TRUE(q.run_one());
        const EventQueue::EventId cancelled = q.schedule(us(2), 0, [] {});
        ASSERT_TRUE(q.cancel(cancelled));
        // One pending event at a time: every schedule below reuses the slot
        // the two dead ids named.
        std::vector<EventQueue::EventId> issued{fired, cancelled};
        for (int round = 0; round < 1000; ++round) {
            const EventQueue::EventId id = q.schedule(q.now() + us(1), 0, [] {});
            EXPECT_TRUE(q.pending(id));
            for (const EventQueue::EventId dead : {fired, cancelled}) {
                ASSERT_NE(id, dead) << "a reused slot reissued a dead id";
                EXPECT_FALSE(q.pending(dead));
                EXPECT_FALSE(q.cancel(dead));
            }
            issued.push_back(id);
            if (round % 2 == 0)
                ASSERT_TRUE(q.run_one());
            else
                ASSERT_TRUE(q.cancel(id));
            EXPECT_FALSE(q.pending(id));
            EXPECT_FALSE(q.cancel(id));
        }
        // Every id issued along the way is distinct and dead.
        std::vector<EventQueue::EventId> sorted = issued;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
        for (const EventQueue::EventId id : issued) EXPECT_FALSE(q.pending(id));
        EXPECT_TRUE(q.empty());
        EXPECT_TRUE(q.audit());
    }
}

// --- the next-event lane: one entry kept in front of the heap -------------

TEST(EventQueue, CancelledLaneEntryFallsThroughToTheHeap) {
    EventQueue q;
    std::vector<int> order;
    q.schedule(us(30), 0, [&] { order.push_back(30); });  // an empty queue's lane
    q.schedule(us(20), 0, [&] { order.push_back(20); });  // displaces 30 into the heap
    const auto lane = q.schedule(us(10), 0, [&] { order.push_back(10); });
    EXPECT_TRUE(q.audit());
    ASSERT_TRUE(q.cancel(lane));
    EXPECT_TRUE(q.audit());
    EXPECT_EQ(q.next_time().raw_micros(), 20);
    EXPECT_TRUE(q.audit());
    ASSERT_TRUE(q.run_one());
    EXPECT_TRUE(q.audit());
    // The lane is empty now: an entry before the heap's top takes it again.
    const auto again = q.schedule(us(25), 0, [&] { order.push_back(25); });
    EXPECT_TRUE(q.audit());
    ASSERT_TRUE(q.cancel(again));
    EXPECT_TRUE(q.audit());
    ASSERT_TRUE(q.run_one());
    EXPECT_TRUE(q.audit());
    EXPECT_FALSE(q.run_one());
    EXPECT_EQ(order, (std::vector<int>{20, 30}));
    EXPECT_EQ(q.now().raw_micros(), 30);
    EXPECT_TRUE(q.empty());
    EXPECT_TRUE(q.audit());
}

TEST(EventQueue, SameInstantLowerPriorityOrSourceDisplacesTheLane) {
    EventQueue q;
    std::vector<std::string> order;
    const auto post = [&](int priority, std::uint32_t source, std::string tag) {
        q.schedule(us(5), priority, source, [&order, tag] { order.push_back(tag); });
        EXPECT_TRUE(q.audit()) << tag;
    };
    post(2, 3, "p2s3");         // the lane
    post(1, 3, "p1s3");         // a lower priority class displaces it
    post(1, 1, "p1s1");         // a lower source displaces it
    post(1, 1, "p1s1-later");   // the same key inserted later does not
    post(1, 2, "p1s2");         // nor does a higher source
    post(0, 9, "p0s9");         // the lowest class displaces it whatever its source
    while (q.run_one()) EXPECT_TRUE(q.audit());
    EXPECT_EQ(order, (std::vector<std::string>{"p0s9", "p1s1", "p1s1-later", "p1s2", "p1s3",
                                               "p2s3"}));
}

/// A program that keeps scheduling ahead of everything pending (so the lane
/// changes hands at nearly every step), cancels lane entries, and fires now
/// and then, auditing after every step. Returns the tags in firing order.
std::vector<int> lane_program(const TiePerturbation& p) {
    EventQueue q;
    q.set_perturbation(p);
    std::vector<int> fired;
    for (int i = 0; i < 60; ++i) {
        // Descending times: once the clock passes one, it clamps to now and
        // ties break by priority, source and insertion.
        const EventQueue::EventId id =
            q.schedule(us(1000 - 15 * i), i % 3, static_cast<std::uint32_t>(i % 2),
                       [&fired, i] { fired.push_back(i); });
        EXPECT_TRUE(q.audit()) << "schedule " << i;
        if (i % 5 == 4) {
            EXPECT_TRUE(q.cancel(id));
            EXPECT_TRUE(q.audit()) << "cancel " << i;
        }
        if (i % 7 == 6) {
            EXPECT_TRUE(q.run_one());
            EXPECT_TRUE(q.audit()) << "run after " << i;
        }
    }
    while (q.run_one()) EXPECT_TRUE(q.audit());
    EXPECT_TRUE(q.empty());
    return fired;
}

TEST(EventQueue, LaneKeepsTheOrderUnderTombstonesAndIdOffsets) {
    const std::vector<int> plain = lane_program(TiePerturbation{});
    // Every event but the cancelled ones (i % 5 == 4) fires exactly once.
    std::vector<int> sorted = plain;
    std::sort(sorted.begin(), sorted.end());
    std::vector<int> expected;
    for (int i = 0; i < 60; ++i)
        if (i % 5 != 4) expected.push_back(i);
    EXPECT_EQ(sorted, expected);
    for (const TiePerturbation& p :
         {TiePerturbation{.tombstone_stride = 1}, TiePerturbation{.tombstone_stride = 3},
          TiePerturbation{.id_offset = 0 - (std::uint64_t{1} << 32)},
          TiePerturbation{.id_offset = 77, .tombstone_stride = 2}}) {
        SCOPED_TRACE("stride " + std::to_string(p.tombstone_stride) + " offset " +
                     std::to_string(p.id_offset));
        EXPECT_EQ(lane_program(p), plain);
    }
}

// --------------------------------------------------------------------------
// SimResource
// --------------------------------------------------------------------------

SimResource::Job fixed_job(SimTime duration, std::vector<std::int64_t>& completions,
                           EventQueue& q, std::int64_t tag = 0) {
    SimResource::Job job;
    job.on_start = [duration](std::size_t) { return duration; };
    job.on_complete = [&completions, &q, tag](std::size_t) {
        completions.push_back(tag ? tag : q.now().raw_micros());
    };
    return job;
}

TEST(SimResource, SingleChannelServesSerially) {
    EventQueue q;
    SimResource disk(q, 1, 0);
    std::vector<std::int64_t> done;
    disk.submit(fixed_job(us(10), done, q));
    disk.submit(fixed_job(us(5), done, q));  // queues behind the first
    EXPECT_EQ(disk.busy_channels(), 1u);
    EXPECT_EQ(disk.queued(), 1u);
    while (q.run_one()) {
    }
    EXPECT_EQ(done, (std::vector<std::int64_t>{10, 15}));
    EXPECT_TRUE(disk.idle());
}

TEST(SimResource, TwoChannelsServeInParallel) {
    EventQueue q;
    SimResource disk(q, 2, 0);
    std::vector<std::int64_t> done;
    disk.submit(fixed_job(us(10), done, q));
    disk.submit(fixed_job(us(10), done, q));
    EXPECT_EQ(disk.busy_channels(), 2u);
    EXPECT_EQ(disk.queued(), 0u);
    while (q.run_one()) {
    }
    // Both finish at t=10, not t=10 and t=20.
    EXPECT_EQ(done, (std::vector<std::int64_t>{10, 10}));
}

TEST(SimResource, WaitingQueueServesLowerPriorityClassFirst) {
    EventQueue q;
    SimResource disk(q, 1, 0);
    std::vector<std::int64_t> done;
    disk.submit(fixed_job(us(10), done, q, 1));  // occupies the channel
    auto low = fixed_job(us(10), done, q, 3);
    low.priority = 1;
    disk.submit(std::move(low));
    auto high = fixed_job(us(10), done, q, 2);
    high.priority = 0;  // submitted later, but a more urgent class
    disk.submit(std::move(high));
    while (q.run_one()) {
    }
    EXPECT_EQ(done, (std::vector<std::int64_t>{1, 2, 3}));
}

TEST(SimResource, ServiceDurationDecidedAtStartNotSubmission) {
    // on_start runs when the channel begins service — a disk read's cost
    // depends on where the head is *then*, not at submission.
    EventQueue q;
    SimResource disk(q, 1, 0);
    std::vector<std::int64_t> done;
    SimTime second_duration = us(100);
    disk.submit(fixed_job(us(10), done, q));
    SimResource::Job job;
    job.on_start = [&second_duration](std::size_t) { return second_duration; };
    job.on_complete = [&done, &q](std::size_t) { done.push_back(q.now().raw_micros()); };
    disk.submit(std::move(job));
    second_duration = us(7);  // changed while the job waits in queue
    while (q.run_one()) {
    }
    EXPECT_EQ(done, (std::vector<std::int64_t>{10, 17}));
}

TEST(SimResource, NonPreemptibleJobPreemptsPreemptibleMidService) {
    EventQueue q;
    SimResource disk(q, 1, 0);
    std::vector<std::int64_t> done;
    SimTime abort_remaining = SimTime::zero();
    std::int64_t abort_at = -1;
    SimResource::Job spec;
    spec.preemptible = true;
    spec.priority = 1;
    spec.on_start = [](std::size_t) { return us(100); };
    spec.on_complete = [&done, &q](std::size_t) { done.push_back(-1); };
    spec.on_abort = [&](std::size_t, SimTime remaining) {
        abort_remaining = remaining;
        abort_at = q.now().raw_micros();
    };
    disk.submit(std::move(spec));
    q.schedule(us(40), 0, [&] { disk.submit(fixed_job(us(10), done, q)); });
    while (q.run_one()) {
    }
    EXPECT_EQ(abort_at, 40);                    // preempted on demand arrival
    EXPECT_EQ(abort_remaining.raw_micros(), 60);      // 100 - 40 not rendered
    EXPECT_EQ(done, (std::vector<std::int64_t>{50}));  // demand runs 40..50
}

TEST(SimResource, NonPreemptibleJobsAreNeverPreempted) {
    EventQueue q;
    SimResource disk(q, 1, 0);
    std::vector<std::int64_t> done;
    disk.submit(fixed_job(us(100), done, q));   // non-preemptible by default
    q.schedule(us(40), 0, [&] { disk.submit(fixed_job(us(10), done, q)); });
    while (q.run_one()) {
    }
    EXPECT_EQ(done, (std::vector<std::int64_t>{100, 110}));
}

TEST(SimResource, BusyChannelTimeIntegratesAcrossChannels) {
    EventQueue q;
    SimResource disk(q, 2, 0);
    std::vector<std::int64_t> done;
    disk.submit(fixed_job(us(10), done, q));
    disk.submit(fixed_job(us(30), done, q));
    while (q.run_one()) {
    }
    // Channel 0 busy for 10us, channel 1 for 30us.
    EXPECT_EQ(disk.busy_channel_time().raw_micros(), 40);
}

TEST(SimResource, IdleHookFiresWhenAChannelFreesWithEmptyQueue) {
    EventQueue q;
    SimResource disk(q, 1, 0);
    std::vector<std::int64_t> done;
    std::vector<std::int64_t> idle_at;
    disk.set_idle_hook([&] { idle_at.push_back(q.now().raw_micros()); });
    disk.submit(fixed_job(us(10), done, q));
    disk.submit(fixed_job(us(5), done, q));
    while (q.run_one()) {
    }
    // Not at t=10 (a job was waiting) — only at t=15 when the queue is empty.
    EXPECT_EQ(idle_at, (std::vector<std::int64_t>{15}));
}

TEST(SimResource, ObserverSeesTheOldBusyCount) {
    EventQueue q;
    SimResource disk(q, 1, 0);
    std::vector<std::size_t> observed;
    disk.set_observer([&] { observed.push_back(disk.busy_channels()); });
    std::vector<std::int64_t> done;
    disk.submit(fixed_job(us(10), done, q));
    while (q.run_one()) {
    }
    // Before start: 0 busy; before completion: 1 busy.
    EXPECT_EQ(observed, (std::vector<std::size_t>{0, 1}));
}

TEST(SimResource, ZeroChannelsRejected) {
    EventQueue q;
    EXPECT_THROW(SimResource(q, 0, 0), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Explicit cancellation (SimResource::cancel — hedged-read straggler path)
// --------------------------------------------------------------------------

TEST(SimResource, CancelInServiceJobRunsOnAbortWithRemainder) {
    EventQueue q;
    SimResource disk(q, 1, 0);
    std::vector<std::int64_t> done;
    std::int64_t aborted_remaining = -1;
    SimResource::Job job = fixed_job(us(100), done, q);
    job.on_abort = [&](std::size_t, SimTime remaining) {
        aborted_remaining = remaining.raw_micros();
    };
    const SimResource::JobId id = disk.submit(std::move(job));
    q.schedule(us(30), 0, [&] { EXPECT_TRUE(disk.cancel(id)); });
    while (q.run_one()) {
    }
    EXPECT_TRUE(done.empty());             // on_complete never ran
    EXPECT_EQ(aborted_remaining, 70);      // 100 - 30 unrendered
    EXPECT_TRUE(disk.idle());
    EXPECT_TRUE(disk.audit());
    EXPECT_TRUE(q.audit());
}

TEST(SimResource, CancelWaitingJobIsSilentAndCancelOfResolvedReturnsFalse) {
    EventQueue q;
    SimResource disk(q, 1, 0);
    std::vector<std::int64_t> done;
    const SimResource::JobId first = disk.submit(fixed_job(us(10), done, q, 1));
    bool waiting_aborted = false;
    SimResource::Job waiting = fixed_job(us(10), done, q, 2);
    waiting.on_abort = [&](std::size_t, SimTime) { waiting_aborted = true; };
    const SimResource::JobId second = disk.submit(std::move(waiting));
    EXPECT_TRUE(disk.cancel(second));   // removed from the queue silently
    EXPECT_FALSE(waiting_aborted);      // service never started
    while (q.run_one()) {
    }
    EXPECT_EQ(done, (std::vector<std::int64_t>{1}));
    EXPECT_FALSE(disk.cancel(first));   // already completed
    EXPECT_FALSE(disk.cancel(second));  // already cancelled
    EXPECT_TRUE(disk.audit());
}

TEST(SimResource, CancelBackfillsTheFreedChannelFromTheQueue) {
    EventQueue q;
    SimResource disk(q, 1, 0);
    std::vector<std::int64_t> done;
    const SimResource::JobId head = disk.submit(fixed_job(us(100), done, q, 1));
    disk.submit(fixed_job(us(5), done, q, 2));  // waits behind the head
    q.schedule(us(10), 0, [&] { disk.cancel(head); });
    while (q.run_one()) {
    }
    // The waiting job started at the cancel instant and ran to completion.
    EXPECT_EQ(done, (std::vector<std::int64_t>{2}));
    EXPECT_EQ(q.now().raw_micros(), 15);
    EXPECT_TRUE(disk.audit());
}

TEST(SimResource, HedgePairRaceAtExactCompletionTickHasOneWinner) {
    // The hedged-read race: primary and hedge finish at the same virtual
    // instant. Whichever completion event fires first (FIFO on equal time
    // and priority: the primary's) cancels the other; exactly one
    // on_complete runs, the loser's on_abort sees zero remaining, and both
    // kernel audits stay clean — no double-completion, no dangling event.
    EventQueue q;
    SimResource disk(q, 2, 0);
    int completions = 0;
    int aborts = 0;
    SimResource::JobId primary = 0, hedge = 0;
    std::int64_t abort_remaining = -1;

    SimResource::Job a;
    a.on_start = [](std::size_t) { return us(50); };
    a.on_complete = [&](std::size_t) {
        ++completions;
        EXPECT_TRUE(disk.cancel(hedge));  // loser cancelled at the same tick
    };
    a.on_abort = [&](std::size_t, SimTime r) {
        ++aborts;
        abort_remaining = r.raw_micros();
    };
    SimResource::Job b;
    b.on_start = [](std::size_t) { return us(50); };
    b.on_complete = [&](std::size_t) {
        ++completions;
        EXPECT_TRUE(disk.cancel(primary));
    };
    b.on_abort = [&](std::size_t, SimTime r) {
        ++aborts;
        abort_remaining = r.raw_micros();
    };
    primary = disk.submit(std::move(a));
    hedge = disk.submit(std::move(b));
    while (q.run_one()) {
    }
    EXPECT_EQ(completions, 1);      // exactly one winner
    EXPECT_EQ(aborts, 1);           // exactly one cancelled loser
    EXPECT_EQ(abort_remaining, 0);  // fully rendered, cancelled at the wire
    EXPECT_TRUE(disk.idle());
    EXPECT_TRUE(disk.audit());
    EXPECT_TRUE(q.audit());
}

TEST(SimResource, CancelUnknownIdReturnsFalse) {
    EventQueue q;
    SimResource disk(q, 1, 0);
    EXPECT_FALSE(disk.cancel(0));
    EXPECT_FALSE(disk.cancel(12345));
}

// --------------------------------------------------------------------------
// Same-tick cancel + repost interleavings. A handler cancelling a sibling
// scheduled at the *current* instant and immediately reposting is the
// schedule class the program fuzzer (fuzz/fuzz_event_queue.cpp) exercises
// hardest; these pin the documented golden orders.
// --------------------------------------------------------------------------

TEST(EventQueue, SameTickCancelAndRepostJoinsTheTickTail) {
    EventQueue q;
    std::vector<std::string> order;
    EventQueue::EventId c = 0;
    // `a` fires first, cancels `c` (same tick, same priority) and reposts a
    // replacement `d` at that tick. The replacement takes a fresh insertion
    // rank — it joins the tail of the tick behind `b`, never re-occupying
    // the cancelled slot.
    q.schedule(us(10), 1, [&] {
        order.push_back("a");
        EXPECT_TRUE(q.cancel(c));
        q.schedule(us(10), 1, [&] { order.push_back("d"); });
    });
    q.schedule(us(10), 1, [&] { order.push_back("b"); });
    c = q.schedule(us(10), 1, [&] { order.push_back("c"); });
    while (q.run_one()) {
    }
    EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "d"}));
    EXPECT_EQ(q.now().raw_micros(), 10);  // all of it happened at one instant
    EXPECT_TRUE(q.audit());
}

TEST(EventQueue, SameTickRepostAtHigherPriorityOvertakesRemainingSiblings) {
    EventQueue q;
    std::vector<std::string> order;
    EventQueue::EventId doomed = 0;
    q.schedule(us(10), 2, [&] {
        order.push_back("first");
        EXPECT_TRUE(q.cancel(doomed));
        // Lower priority value sorts earlier: the repost runs at this tick
        // *before* the remaining priority-2 siblings.
        q.schedule(us(10), 1, [&] { order.push_back("repost"); });
    });
    q.schedule(us(10), 2, [&] { order.push_back("second"); });
    doomed = q.schedule(us(10), 2, [&] { order.push_back("doomed"); });
    while (q.run_one()) {
    }
    EXPECT_EQ(order, (std::vector<std::string>{"first", "repost", "second"}));
}

TEST(EventQueue, CancelRepostChurnAtOneTickIsDeterministic) {
    // A chain of handlers at one instant, each cancelling the next pending
    // sibling and reposting a replacement. Run the program twice: the full
    // firing order is golden and the queue drains clean both times.
    const auto run = [] {
        EventQueue q;
        std::vector<int> order;
        std::vector<EventQueue::EventId> ids;
        for (int i = 0; i < 8; ++i) {
            ids.push_back(q.schedule(us(5), 1, [&, i] {
                order.push_back(i);
                // Cancel the next still-pending original (if any) and repost
                // a tagged replacement at the same tick.
                for (std::size_t j = static_cast<std::size_t>(i) + 1;
                     j < ids.size(); ++j) {
                    if (q.cancel(ids[j])) {
                        q.schedule(us(5), 1,
                                   [&order, j] { order.push_back(100 + static_cast<int>(j)); });
                        break;
                    }
                }
            }));
        }
        while (q.run_one()) {
        }
        EXPECT_TRUE(q.empty());
        EXPECT_TRUE(q.audit());
        return order;
    };
    const std::vector<int> first = run();
    const std::vector<int> second = run();
    EXPECT_EQ(first, second);
    // Golden: 0 cancels 1 and reposts 101; 2 cancels 3, reposts 103; ... the
    // reposts land behind the surviving originals, and each repost fires
    // after every original (reposts themselves cancel nothing).
    EXPECT_EQ(first, (std::vector<int>{0, 2, 4, 6, 101, 103, 105, 107}));
}

TEST(SimResource, SameTickCancelAndResubmitBackfillsAtOneInstant) {
    // Cancel an in-service job and resubmit its replacement from the same
    // event handler: the channel frees and re-fills at one virtual instant,
    // with the replacement's completion priced from the cancel tick.
    EventQueue q;
    SimResource disk(q, 1, 0);
    std::vector<std::int64_t> done;
    std::int64_t abort_remaining = -1;
    SimResource::Job head = fixed_job(us(100), done, q, 1);
    head.on_abort = [&](std::size_t, SimTime remaining) {
        abort_remaining = remaining.raw_micros();
    };
    const SimResource::JobId id = disk.submit(std::move(head));
    q.schedule(us(40), 0, [&] {
        EXPECT_TRUE(disk.cancel(id));
        disk.submit(fixed_job(us(10), done, q, 2));
    });
    while (q.run_one()) {
    }
    EXPECT_EQ(abort_remaining, 60);  // 100 - 40 unrendered
    EXPECT_EQ(done, (std::vector<std::int64_t>{2}));
    EXPECT_EQ(q.now().raw_micros(), 50);  // replacement started at 40, ran 10
    EXPECT_TRUE(disk.idle());
    EXPECT_TRUE(disk.audit());
    EXPECT_TRUE(q.audit());
}

TEST(SimResource, CancelResubmitChurnAtOneTickKeepsConservation) {
    // Fuzz-shaped churn, pinned: at one instant, cancel a waiting job, the
    // in-service job, and resubmit two replacements on a two-channel
    // resource. Every started job resolves exactly once and the audits hold.
    EventQueue q;
    SimResource disk(q, 2, 0);
    std::vector<std::int64_t> done;
    const SimResource::JobId a = disk.submit(fixed_job(us(100), done, q, 1));
    disk.submit(fixed_job(us(100), done, q, 2));
    const SimResource::JobId c = disk.submit(fixed_job(us(100), done, q, 3));
    q.schedule(us(25), 0, [&] {
        EXPECT_TRUE(disk.cancel(c));  // still waiting: silent discard
        EXPECT_TRUE(disk.cancel(a));  // in service: aborts, channel backfills
        disk.submit(fixed_job(us(5), done, q, 4));
        disk.submit(fixed_job(us(15), done, q, 5));
    });
    while (q.run_one()) {
    }
    // Channel freed by `a` takes job 4 at t=25 (done 30), then job 5 at 30
    // (done 45); job 2 runs to its natural completion at t=100.
    EXPECT_EQ(done, (std::vector<std::int64_t>{4, 5, 2}));
    EXPECT_EQ(q.now().raw_micros(), 100);
    EXPECT_TRUE(disk.idle());
    EXPECT_TRUE(disk.audit());
    EXPECT_TRUE(q.audit());
}

}  // namespace
}  // namespace jaws::util
