/**
 * @file
 * The Runtime over a Simulator + Network pair, and its deterministic
 * backend.
 *
 * SimBackedRuntime holds the pair and forwards the clock, timer and
 * transport calls both backends share.  Derived::Hold is held across
 * each call: nothing on SimRuntime, the loop mutex on ThreadedRuntime
 * (threaded_runtime.h), which paces the same pair by the wall clock.
 *
 * SimRuntime is stepped by the caller (runUntil/advance).  Every call
 * forwards unchanged — no extra scheduling, no reordering, no added
 * randomness — so protocol code re-plumbed from (Simulator&, Network&)
 * to Runtime& behaves byte-identically: the same seeds produce the
 * same event order, metric values and trace hashes as before the seam
 * existed.  The one adjustment is scheduleAt(), which clamps a past
 * deadline to now as the Runtime contract promises (the Simulator
 * itself still rejects one).
 *
 * Neither backend owns the pair; tests and the Universe construct it
 * directly (for partitions, fault injectors, flight accounting) and
 * wrap it when handing a Runtime to the protocol tiers.
 */

#ifndef OCEANSTORE_RUNTIME_SIM_RUNTIME_H
#define OCEANSTORE_RUNTIME_SIM_RUNTIME_H

#include <algorithm>

#include "runtime/runtime.h"
#include "sim/simulator.h"

namespace oceanstore {

/** The Runtime calls both backends forward to Simulator + Network;
 *  @p Derived supplies the Hold type guarding each one. */
template <typename Derived>
class SimBackedRuntime : public Runtime
{
  public:
    // --- clock & timers -------------------------------------------
    SimTime
    now() const override
    {
        typename Derived::Hold h(self());
        return sim_.now();
    }

    EventId
    schedule(SimTime delay, EventFn fn) override
    {
        typename Derived::Hold h(self());
        return sim_.schedule(delay, std::move(fn));
    }

    EventId
    scheduleAt(SimTime when, EventFn fn) override
    {
        typename Derived::Hold h(self());
        return sim_.scheduleAt(std::max(when, sim_.now()), std::move(fn));
    }

    void
    cancel(EventId id) override
    {
        typename Derived::Hold h(self());
        sim_.cancel(id);
    }

    void
    post(EventFn fn) override
    {
        typename Derived::Hold h(self());
        sim_.schedule(0.0, std::move(fn));
    }

    // --- transport ------------------------------------------------
    NodeId
    addNode(SimNode *node, double x, double y) override
    {
        typename Derived::Hold h(self());
        return net_.addNode(node, x, y);
    }

    void
    removeNode(NodeId id) override
    {
        typename Derived::Hold h(self());
        net_.removeNode(id);
    }

    std::size_t
    nodeCount() const override
    {
        typename Derived::Hold h(self());
        return net_.size();
    }

    void
    send(NodeId from, NodeId to, Message msg) override
    {
        typename Derived::Hold h(self());
        net_.send(from, to, std::move(msg));
    }

    void
    multicast(NodeId from, const std::vector<NodeId> &tos,
              Message msg) override
    {
        typename Derived::Hold h(self());
        net_.multicast(from, tos, std::move(msg));
    }

    double
    latency(NodeId a, NodeId b) const override
    {
        typename Derived::Hold h(self());
        return net_.latency(a, b);
    }

    double
    distance(NodeId a, NodeId b) const override
    {
        typename Derived::Hold h(self());
        return net_.distance(a, b);
    }

    double
    xOf(NodeId n) const override
    {
        typename Derived::Hold h(self());
        return net_.xOf(n);
    }

    double
    yOf(NodeId n) const override
    {
        typename Derived::Hold h(self());
        return net_.yOf(n);
    }

    void
    setDown(NodeId n) override
    {
        typename Derived::Hold h(self());
        net_.setDown(n);
    }

    void
    setUp(NodeId n) override
    {
        typename Derived::Hold h(self());
        net_.setUp(n);
    }

    bool
    isUp(NodeId n) const override
    {
        typename Derived::Hold h(self());
        return net_.isUp(n);
    }

    std::uint64_t
    totalBytes() const override
    {
        typename Derived::Hold h(self());
        return net_.totalBytes();
    }

    std::uint64_t
    totalMessages() const override
    {
        typename Derived::Hold h(self());
        return net_.totalMessages();
    }

    std::size_t
    inFlight() const override
    {
        typename Derived::Hold h(self());
        return net_.inFlight();
    }

    // --- seeded rng -----------------------------------------------
    std::uint64_t
    mixSeed(std::uint64_t salt) const override
    {
        return mixSeed64(seed_, salt);
    }

  protected:
    /** Wrap an existing simulator/network; neither is owned. */
    SimBackedRuntime(Simulator &sim, Network &net, std::uint64_t seed)
        : sim_(sim), net_(net), seed_(seed)
    {
    }

    Simulator &sim_;
    Network &net_;
    std::uint64_t seed_;

  private:
    const Derived &self() const { return static_cast<const Derived &>(*this); }
};

/** Deterministic Runtime: the caller's thread steps the loop. */
class SimRuntime final : public SimBackedRuntime<SimRuntime>
{
  public:
    /** Nothing to hold: everything runs on the caller's thread. */
    struct Hold
    {
        explicit Hold(const SimRuntime &) {}
    };

    /** Wrap an existing simulator/network; neither is owned. */
    SimRuntime(Simulator &sim, Network &net,
               std::uint64_t seed = 0x05eedull)
        : SimBackedRuntime(sim, net, seed)
    {
    }

    std::uint64_t
    uniqueStamp() const override
    {
        return sim_.eventsExecuted();
    }

    // --- introspection --------------------------------------------
    /** Trivially derived from the wrapped pair: the event queue is
     *  the timer surface and delivery flights are the "link queue";
     *  the caller's thread runs the loop, so nothing is ever waiting
     *  to fire and the loop-thread fields stay zero. */
    RuntimeStats
    stats() const override
    {
        RuntimeStats s;
        s.uptime = sim_.now();
        s.timersPending = sim_.pending();
        s.linkQueuedMessages = net_.inFlight();
        s.tasksExecuted = sim_.eventsExecuted();
        return s;
    }

    // --- mode & driving -------------------------------------------
    bool deterministic() const override { return true; }

    bool
    runUntil(const std::function<bool()> &pred, SimTime deadline)
        override
    {
        while (!pred()) {
            if (sim_.now() > deadline)
                return pred();
            if (!sim_.step())
                return pred();
        }
        return true;
    }

    void advance(SimTime seconds) override { sim_.runUntil(sim_.now() + seconds); }

    void execute(const std::function<void()> &fn) override { fn(); }
};

} // namespace oceanstore

#endif // OCEANSTORE_RUNTIME_SIM_RUNTIME_H
