// Fuzz harness for util::EventQueue + util::SimResource.
//
// Decodes the input into a program of schedule/cancel/run_one/submit/
// cancel-job/drain operations and checks the kernel against a simple
// reference model:
//
//   * every directly scheduled event fires exactly once, at its (clamped)
//     timestamp, never before its post tick, and in the documented
//     (time, priority, source, insertion) order relative to every other
//     directly scheduled event — interleaved resource completions cannot
//     reorder two model events because the comparator is a fixed total
//     order;
//   * cancel() returns exactly the model's liveness (false for executed,
//     cancelled or never-issued ids, also after the slot an id named has been
//     reused);
//   * every submitted resource job obeys the Job lifecycle (on_start at most
//     once, then exactly one of on_complete at started + duration or
//     on_abort with a sane unrendered remainder), SimResource::cancel()
//     returns the model's liveness, and after draining the accounting adds
//     up: started + discarded-while-waiting == submitted, completed +
//     aborted == started, busy-channel time <= channels * elapsed;
//   * audit() stays clean throughout (the default contract handler aborts
//     the process on a violation, which is exactly what a fuzzer wants).
#include <algorithm>
#include <cstdint>
#include <vector>

#include "fuzz_input.h"
#include "util/event_queue.h"
#include "util/sim_time.h"

namespace {

using jaws::fuzz::FuzzInput;
using jaws::util::EventQueue;
using jaws::util::SimResource;
using jaws::util::SimTime;

constexpr int kMaxOps = 512;
constexpr int kCompletionPriority = 1;
constexpr std::uint32_t kResourceSource = 4;

struct ModelEvent {
    SimTime expected_at;  ///< Scheduled time clamped to now() at post time.
    int priority = 0;
    std::uint32_t source = 0;
    std::uint64_t rank = 0;  ///< Insertion rank among model events.
    EventQueue::EventId id = 0;
    bool live = false;    ///< Scheduled, not yet fired or cancelled.
    bool fired = false;
};

struct ModelJob {
    SimResource::JobId id = 0;
    SimTime duration;
    bool started = false;
    bool completed = false;
    bool aborted = false;
    bool cancelled_waiting = false;  ///< cancel() removed it before service.
    SimTime started_at;
};

struct Harness {
    EventQueue queue;
    SimResource resource;
    std::vector<ModelEvent> events;
    std::vector<ModelJob> jobs;
    std::uint64_t next_rank = 0;

    explicit Harness(std::size_t channels)
        : resource(queue, channels, kCompletionPriority, kResourceSource) {}

    ModelJob& job_by_id(SimResource::JobId id) {
        for (ModelJob& j : jobs)
            if (j.id == id) return j;
        JAWS_FUZZ_REQUIRE(false, "callback for a job the model never submitted");
        __builtin_unreachable();
    }

    /// (time, priority, source, rank) strictly less-than — the documented
    /// EventQueue ordering restricted to model events.
    static bool key_less(const ModelEvent& a, const ModelEvent& b) {
        if (a.expected_at != b.expected_at) return a.expected_at < b.expected_at;
        if (a.priority != b.priority) return a.priority < b.priority;
        if (a.source != b.source) return a.source < b.source;
        return a.rank < b.rank;
    }

    void on_model_event_fired(std::size_t index) {
        ModelEvent& e = events[index];
        JAWS_FUZZ_REQUIRE(e.live && !e.fired, "event fired twice or after cancel");
        JAWS_FUZZ_REQUIRE(queue.now() == e.expected_at,
                          "event fired at a different tick than scheduled");
        // No live model event may precede this one in the documented order:
        // both were pending, so the earlier key must have popped first.
        for (const ModelEvent& other : events)
            if (other.live && !other.fired)
                JAWS_FUZZ_REQUIRE(!key_less(other, e),
                                  "event fired ahead of an earlier-keyed live event");
        e.live = false;
        e.fired = true;
        JAWS_FUZZ_REQUIRE(queue.last_source() == e.source,
                          "last_source() disagrees with the fired event");
    }

    void schedule_one(FuzzInput& in) {
        ModelEvent e;
        // Past times (negative delta) must clamp to now(); the model mirrors
        // the documented clamp.
        const SimTime at = queue.now() + SimTime::from_micros(in.range(-200, 1000));
        e.expected_at = std::max(at, queue.now());
        e.priority = static_cast<int>(in.below(4));
        e.source = static_cast<std::uint32_t>(in.below(4));
        e.rank = next_rank++;
        const std::size_t index = events.size();
        e.id = queue.schedule(at, e.priority, e.source,
                              [this, index] { on_model_event_fired(index); });
        e.live = true;
        events.push_back(e);
    }

    void cancel_event(FuzzInput& in) {
        if (events.empty() || in.boolean()) {
            // An id the queue never issued to us: an id encodes (generation
            // << 32 | slot), and no slot of a 512-op program reaches
            // generation 1 << 28.
            JAWS_FUZZ_REQUIRE(!queue.cancel((1ULL << 60) + in.below(1024)),
                              "cancel of a never-issued id returned true");
            return;
        }
        ModelEvent& e = events[in.below(events.size())];
        const bool expected = e.live;
        JAWS_FUZZ_REQUIRE(queue.cancel(e.id) == expected,
                          "cancel() disagrees with model liveness");
        e.live = false;
    }

    void submit_job(FuzzInput& in) {
        jobs.push_back(ModelJob{});
        ModelJob& j = jobs.back();
        const std::size_t slot = jobs.size() - 1;
        j.duration = SimTime::from_micros(in.range(0, 500));
        SimResource::Job job;
        job.priority = static_cast<int>(in.below(3));
        job.preemptible = in.boolean();
        job.on_start = [this, slot](std::size_t channel) {
            ModelJob& job_state = jobs[slot];
            JAWS_FUZZ_REQUIRE(channel < resource.channels(), "bad channel index");
            JAWS_FUZZ_REQUIRE(!job_state.started, "on_start ran twice");
            JAWS_FUZZ_REQUIRE(!job_state.cancelled_waiting,
                              "cancelled-waiting job reached service");
            job_state.started = true;
            job_state.started_at = queue.now();
            return job_state.duration;
        };
        job.on_complete = [this, slot](std::size_t channel) {
            ModelJob& job_state = jobs[slot];
            JAWS_FUZZ_REQUIRE(channel < resource.channels(), "bad channel index");
            JAWS_FUZZ_REQUIRE(job_state.started, "on_complete before on_start");
            JAWS_FUZZ_REQUIRE(!job_state.completed && !job_state.aborted,
                              "job resolved twice");
            JAWS_FUZZ_REQUIRE(queue.now() == job_state.started_at + job_state.duration,
                              "completion at the wrong virtual instant");
            job_state.completed = true;
        };
        job.on_abort = [this, slot](std::size_t channel, SimTime remaining) {
            ModelJob& job_state = jobs[slot];
            JAWS_FUZZ_REQUIRE(channel < resource.channels(), "bad channel index");
            JAWS_FUZZ_REQUIRE(job_state.started, "on_abort before on_start");
            JAWS_FUZZ_REQUIRE(!job_state.completed && !job_state.aborted,
                              "job resolved twice");
            JAWS_FUZZ_REQUIRE(remaining.raw_micros() >= 0, "negative unrendered remainder");
            JAWS_FUZZ_REQUIRE(remaining <= job_state.duration,
                              "unrendered remainder exceeds the service time");
            job_state.aborted = true;
        };
        j.id = resource.submit(std::move(job));
    }

    void cancel_job(FuzzInput& in) {
        if (jobs.empty() || in.boolean()) {
            JAWS_FUZZ_REQUIRE(!resource.cancel((1ULL << 60) + in.below(1024)),
                              "cancel of a never-issued job id returned true");
            return;
        }
        // Snapshot liveness *before* the call: cancel() mutates the state.
        const SimResource::JobId id = jobs[in.below(jobs.size())].id;
        const ModelJob& j = job_by_id(id);
        const bool waiting = !j.started && !j.cancelled_waiting;
        const bool in_service = j.started && !j.completed && !j.aborted;
        const bool expected = waiting || in_service;
        JAWS_FUZZ_REQUIRE(resource.cancel(id) == expected,
                          "SimResource::cancel disagrees with model liveness");
        if (waiting) job_by_id(id).cancelled_waiting = true;
        // An in-service cancel resolves through on_abort (checked there).
    }

    void run_some(FuzzInput& in) {
        const int steps = static_cast<int>(in.below(8)) + 1;
        for (int i = 0; i < steps; ++i) {
            const SimTime before = queue.now();
            const bool had_events = !queue.empty();
            JAWS_FUZZ_REQUIRE(queue.run_one() == had_events,
                              "run_one() return disagrees with empty()");
            JAWS_FUZZ_REQUIRE(queue.now() >= before, "clock moved backwards");
        }
    }

    void check_pending_by_source() {
        std::size_t total = 0;
        for (std::uint32_t s = 0; s <= kResourceSource + 1; ++s)
            total += queue.pending_for(s);
        JAWS_FUZZ_REQUIRE(total == queue.pending(),
                          "per-source pending counts do not sum to pending()");
    }

    void drain() {
        // Every program drains: directly scheduled events are finite and
        // every job's service is finite, so the queue must empty within the
        // (generous) step budget.
        for (int i = 0; i < 1 << 16 && !queue.empty(); ++i) queue.run_one();
        JAWS_FUZZ_REQUIRE(queue.empty(), "queue failed to drain");
        JAWS_FUZZ_REQUIRE(resource.idle(), "resource busy after the queue drained");

        std::size_t started = 0, completed = 0, aborted = 0, discarded = 0;
        for (const ModelJob& j : jobs) {
            started += j.started;
            completed += j.completed;
            aborted += j.aborted;
            discarded += j.cancelled_waiting;
            JAWS_FUZZ_REQUIRE(j.started || j.cancelled_waiting,
                              "job neither serviced nor discarded after drain");
            if (j.started)
                JAWS_FUZZ_REQUIRE(j.completed || j.aborted,
                                  "started job never resolved");
        }
        JAWS_FUZZ_REQUIRE(started + discarded == jobs.size(),
                          "job conservation: started + discarded != submitted");
        JAWS_FUZZ_REQUIRE(completed + aborted == started,
                          "job conservation: completed + aborted != started");
        for (const ModelEvent& e : events)
            JAWS_FUZZ_REQUIRE(e.fired || !e.live,
                              "non-cancelled event never fired after drain");
        JAWS_FUZZ_REQUIRE(queue.audit(), "EventQueue audit failed after drain");
        JAWS_FUZZ_REQUIRE(resource.audit(), "SimResource audit failed after drain");
    }
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
    FuzzInput in(data, size);
    Harness h(in.below(4) + 1);
    const SimTime start = h.queue.now();

    for (int op_count = 0; op_count < kMaxOps && !in.exhausted(); ++op_count) {
        switch (in.below(6)) {
            case 0:
            case 1: h.schedule_one(in); break;
            case 2: h.cancel_event(in); break;
            case 3: h.submit_job(in); break;
            case 4: h.cancel_job(in); break;
            case 5: h.run_some(in); break;
        }
        if ((op_count & 15) == 0) {
            JAWS_FUZZ_REQUIRE(h.queue.audit(), "EventQueue audit failed mid-program");
            JAWS_FUZZ_REQUIRE(h.resource.audit(), "SimResource audit failed mid-program");
            h.check_pending_by_source();
        }
    }
    h.drain();

    const SimTime elapsed = h.queue.now() - start;
    JAWS_FUZZ_REQUIRE(
        h.resource.busy_channel_time().raw_micros() <=
            static_cast<std::int64_t>(h.resource.channels()) * elapsed.raw_micros(),
        "busy-channel time exceeds channels * elapsed");
    JAWS_FUZZ_REQUIRE(h.resource.peak_busy_channels() <= h.resource.channels(),
                      "peak busy channels exceeds the channel count");
    return 0;
}
