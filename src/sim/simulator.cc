#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "util/check.h"
#include "util/logging.h"

namespace oceanstore {

namespace {

/** Interned metric ids, registered once on first use. */
struct SimMetricIds
{
    MetricsRegistry *reg;
    MetricsRegistry::Id scheduled, fired, cancelled, taskDelay;

    SimMetricIds()
        : reg(&MetricsRegistry::global()),
          scheduled(reg->counter("sim.events_scheduled")),
          fired(reg->counter("sim.events_fired")),
          cancelled(reg->counter("sim.events_cancelled")),
          // Schedule->fire latency, the runtime health surface of
          // both backends (the threaded one fires these same slots,
          // paced by the wall clock).
          taskDelay(reg->histogram("runtime.task_delay", 0.0, 2.5, 50))
    {
    }
};

SimMetricIds &
simMetrics()
{
    static SimMetricIds ids;
    return ids;
}

} // namespace

std::uint32_t
Simulator::allocSlotLocked()
{
    if (!freeSlots_.empty()) {
        std::uint32_t s = freeSlots_.back();
        freeSlots_.pop_back();
        return s;
    }
    pool_.emplace_back();
    return static_cast<std::uint32_t>(pool_.size() - 1);
}

void
Simulator::reclaimSlotLocked(std::uint32_t slot)
{
    Slot &s = pool_[slot];
    s.fn.reset(); // release captures eagerly
    s.armed = false;
    s.gen++;      // invalidate every outstanding EventId for this slot
    freeSlots_.push_back(slot);
}

void
Simulator::reserve(std::size_t n)
{
    MutexLock lock(mu_);
    pool_.reserve(n);
    freeSlots_.reserve(n);
}

EventId
Simulator::schedule(SimTime delay, EventFn fn)
{
    if (delay < 0)
        fatal("Simulator::schedule: negative delay");
    MutexLock lock(mu_);
    return scheduleAtLocked(now_ + delay, std::move(fn));
}

EventId
Simulator::scheduleAt(SimTime when, EventFn fn)
{
    MutexLock lock(mu_);
    return scheduleAtLocked(when, std::move(fn));
}

EventId
Simulator::scheduleAtLocked(SimTime when, EventFn fn)
{
    if (std::isnan(when))
        fatal("Simulator::scheduleAt: NaN time");
    if (when < now_)
        fatal("Simulator::scheduleAt: time in the past");
    std::uint32_t slot = allocSlotLocked();
    Slot &s = pool_[slot];
    s.fn = std::move(fn);
    s.when = when;
    s.scheduledAt = now_;
    s.seq = nextSeq_++;
    s.armed = true;
    // Capture the ambient observability context so the event fires
    // inside the trace/phase of the code scheduling it.  One null
    // check each when tracing/profiling are detached; the context is
    // zeroed either way so a reused slot never leaks a stale trace.
    if (const Tracer *tr = Tracer::active())
        s.ctx = tr->current();
    else
        s.ctx = TraceContext{};
    if (const PhaseProfiler *pp = PhaseProfiler::active())
        s.label = pp->currentLabel();
    else
        s.label = 0;
    SimMetricIds &m = simMetrics();
    m.reg->inc(m.scheduled);
    queue_.push(QueueEntry{when, s.seq, slot});
    pending_++;
    return packId(slot, s.gen);
}

void
Simulator::cancel(EventId id)
{
    // Only live events are cancellable; a fired, cancelled, or
    // never-scheduled id fails the generation check and is a
    // documented no-op.  The slot is reclaimed right here — O(1),
    // no tombstone set — and the queue entry it leaves behind is
    // recognized as stale by its sequence number when popped.
    std::uint32_t slot = static_cast<std::uint32_t>(id);
    std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
    MutexLock lock(mu_);
    if (slot >= pool_.size())
        return;
    Slot &s = pool_[slot];
    if (s.gen != gen || !s.armed)
        return;
    reclaimSlotLocked(slot);
    pending_--;
    staleEntries_++;
    SimMetricIds &m = simMetrics();
    m.reg->inc(m.cancelled);
}

bool
Simulator::step()
{
    EventFn fn;
    TraceContext ctx;
    std::uint16_t label = 0;
    SimTime scheduledAt = 0.0;
    SimTime firedAt = 0.0;
    bool have = false;

    // Bookkeeping happens under the lock; the callback fires with it
    // released, so handlers may freely (re)schedule and cancel.
    {
        MutexLock lock(mu_);
        while (!queue_.empty()) {
            QueueEntry e = queue_.top();
            queue_.pop();
            Slot &s = pool_[e.slot];
            if (s.seq != e.seq || !s.armed) {
                // Entry of a cancelled (and possibly since-reused)
                // slot.
                staleEntries_--;
                continue;
            }
            // Self-audit: the clock never moves backwards, and events
            // at equal timestamps fire in scheduling (seq) order.
            OS_CHECK(e.when >= now_, "event seq ", e.seq,
                     " at t=", e.when, " fired with clock at t=", now_);
            OS_CHECK(e.when > lastFiredWhen_ || e.seq > lastFiredSeq_,
                     "FIFO tie-break violated: event seq ", e.seq,
                     " after ", lastFiredSeq_, " at t=", e.when);
            lastFiredWhen_ = e.when;
            lastFiredSeq_ = e.seq;
            now_ = e.when;
            executed_++;
            pending_--;
            // Move the callback out and reclaim the slot *before*
            // firing: the handler may cancel its own id (a no-op by
            // then) or schedule new events that reuse the slot.
            fn = std::move(s.fn);
            ctx = s.ctx;
            label = s.label;
            scheduledAt = s.scheduledAt;
            firedAt = e.when;
            reclaimSlotLocked(e.slot);
            have = true;
            break;
        }
        if (!have)
            auditDrainedLocked();
    }
    if (!have)
        return false;

    SimMetricIds &m = simMetrics();
    m.reg->inc(m.fired);
    m.reg->observe(m.taskDelay, firedAt - scheduledAt);
    // Restore the scheduling code's observability context around the
    // callback, so everything it does (sends, new timers) stays
    // causally linked and phase-attributed.
    Tracer *tr = Tracer::active();
    if (tr)
        tr->setCurrent(ctx);
    PhaseProfiler *pp = PhaseProfiler::active();
    if (pp) {
        pp->onEventFired(label, firedAt - scheduledAt);
        pp->setCurrent(label);
    }
    fn();
    if (tr)
        tr->clearCurrent();
    if (pp)
        pp->setCurrent(0);
    return true;
}

void
Simulator::run()
{
    while (step()) {
    }
}

void
Simulator::runUntil(SimTime until)
{
    for (;;) {
        bool fire;
        {
            MutexLock lock(mu_);
            fire = nextEventTimeLocked() <= until && !queue_.empty();
        }
        if (!fire)
            break;
        step();
    }
    MutexLock lock(mu_);
    if (queue_.empty())
        auditDrainedLocked();
    if (now_ < until)
        now_ = until;
}

SimTime
Simulator::nextEventTimeLocked()
{
    // Drop stale entries so the head is the next event that will
    // actually fire.
    while (!queue_.empty()) {
        const QueueEntry &top = queue_.top();
        const Slot &s = pool_[top.slot];
        if (s.seq == top.seq && s.armed)
            return top.when;
        staleEntries_--;
        queue_.pop();
    }
    return std::numeric_limits<SimTime>::infinity();
}

SimTime
Simulator::nextEventTime()
{
    MutexLock lock(mu_);
    return nextEventTimeLocked();
}

void
Simulator::advanceTo(SimTime t)
{
    MutexLock lock(mu_);
    SimTime target = std::min(t, nextEventTimeLocked());
    if (target > now_)
        now_ = target;
}

std::size_t
Simulator::dueBy(SimTime t) const
{
    MutexLock lock(mu_);
    std::size_t n = 0;
    for (const Slot &s : pool_)
        if (s.armed && s.when <= t)
            n++;
    return n;
}

void
Simulator::auditDrained() const
{
    MutexLock lock(mu_);
    auditDrainedLocked();
}

void
Simulator::auditDrainedLocked() const
{
    // Every queue entry maps to exactly one live or stale slot state,
    // so an empty queue must leave no pending events, no stale
    // entries, and every pool slot reclaimed.
    OS_CHECK(queue_.empty(),
             "auditDrained with ", queue_.size(), " queued events");
    OS_CHECK(staleEntries_ == 0, "stale-entry leak: ", staleEntries_,
             " cancelled entries after queue drained");
    OS_CHECK(pending_ == 0, "pending-event leak: ", pending_,
             " events after queue drained");
    OS_CHECK(freeSlots_.size() == pool_.size(), "slot leak: ",
             pool_.size() - freeSlots_.size(),
             " unreclaimed slots after queue drained");
}

} // namespace oceanstore
