/**
 * @file
 * The Runtime (DESIGN.md section 15).
 *
 * Every protocol state machine in the tree — PBFT, the secondary
 * tier, the Plaxton mesh, archival, the failure detector, the
 * Universe itself — drives its clock, timers and transport through
 * this narrow class instead of binding to sim::Simulator directly.
 * A Runtime wraps a caller-owned discrete-event Simulator + Network
 * pair; its RuntimeKind decides only who drives that pair:
 *
 *  - RuntimeKind::Sim: the caller steps the loop (runUntil/advance),
 *    in simulated time.  Every call forwards unchanged, so a protocol
 *    stack on a sim Runtime is byte-identical (same seeds, same trace
 *    hashes) to one wired to the simulator directly.
 *
 *  - RuntimeKind::Threaded: a Pacer (runtime/threaded_pacer.h) fires
 *    events from a loop thread as the wall clock reaches them, while
 *    client threads enter through execute() or any other call.
 *
 * The class reuses the simulator's vocabulary types (SimTime in
 * seconds, EventId, Message, SimNode), so it adds no translation
 * layer; with a pacer, SimTime tracks wall seconds since runtime
 * start.
 *
 * Threading contract: without a pacer everything is single-threaded.
 * With one, timer callbacks, message handlers and posted tasks all
 * run on the loop thread under one mutex, and execute() (like every
 * other Runtime call) takes that mutex for a client thread, so
 * protocol objects need no locking of their own.
 */

#ifndef OCEANSTORE_RUNTIME_RUNTIME_H
#define OCEANSTORE_RUNTIME_RUNTIME_H

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "runtime/threaded_pacer.h"
#include "sim/event_fn.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace oceanstore {

/** Who drives a Runtime's Simulator + Network pair. */
enum class RuntimeKind
{
    Sim,      //!< Deterministic discrete-event simulation (default).
    Threaded, //!< Real threads + wall clock.
};

/** The loopback link model of threaded mode: a 0.3 ms floor plus
 *  2 ms per unit of distance, no bandwidth term, no jitter and no
 *  drops (faults come from a FaultInjector). */
inline constexpr NetworkConfig loopbackNetwork{
    .baseLatency = 0.0003,
    .latencyPerUnit = 0.002,
    .bandwidth = 0.0,
    .jitter = 0.0,
};

/** Mix a base seed with a salt (SplitMix64 finalizer), so both
 *  kinds hand out reproducible per-component seeds. */
inline std::uint64_t
mixSeed64(std::uint64_t base, std::uint64_t salt)
{
    std::uint64_t z = base + 0x9e3779b97f4a7c15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * Health snapshot of a Runtime (DESIGN.md section 16): how much work
 * is waiting and how busy the loop is *right now*.  Fields with no
 * analogue without a pacer stay zero (there the caller's thread is
 * the loop).  Published as `runtime.*` gauges by
 * publishRuntimeStats() (runtime/stats.h) and rendered into
 * Universe::statusReport().
 */
struct RuntimeStats
{
    /** Clock seconds since the runtime started (sim time / wall). */
    double uptime = 0.0;
    /** Events already due but not yet fired (never future timers).
     *  perfbench/ reads this field by name: do not rename it. */
    std::size_t strandQueueDepth = 0;
    /** Events scheduled and not yet fired or cancelled, deliveries
     *  included. */
    std::size_t timersPending = 0;
    /** Messages accepted but not yet delivered or dropped
     *  (Network::inFlight()). */
    std::size_t linkQueuedMessages = 0;
    /** Loop threads firing events (1 paced, 0 on sim). */
    std::size_t workers = 0;
    /** Callbacks (events) executed since start. */
    std::uint64_t tasksExecuted = 0;
    /** Share of wall time the loop spent firing events, [0, 1]
     *  (0 on sim, whose event loop is the caller's thread). */
    double workerUtilization = 0.0;
};

/** Clock, timers and transport over one Simulator + Network pair,
 *  stepped by the caller or, with a pacer, by the wall clock. */
class Runtime
{
  public:
    /**
     * Wrap an existing simulator/network; neither is owned.  A
     * Threaded runtime starts its loop thread here: from then on
     * touch the pair only through this runtime, by a Runtime call or
     * inside an execute() section.
     */
    Runtime(Simulator &sim, Network &net, std::uint64_t seed = 0x05eedull,
            RuntimeKind kind = RuntimeKind::Sim);

    /** Stops the loop (calls shutdown()). */
    ~Runtime();

    Runtime(const Runtime &) = delete;
    Runtime &operator=(const Runtime &) = delete;

    /**
     * Stop firing events and join the loop thread; events still
     * pending never run.  Idempotent, and a no-op without a pacer.
     * With one it must be called (or the destructor run) before any
     * registered endpoint is destroyed.
     */
    void shutdown();

    // --- clock & timers -------------------------------------------
    /** Current time in seconds (sim time or wall time since start). */
    SimTime
    now() const
    {
        Hold h(pacer_.get());
        return sim_.now();
    }

    /**
     * Run @p fn once after @p delay seconds.  The returned id stays
     * valid for cancel() until the callback has run.
     */
    EventId
    schedule(SimTime delay, EventFn fn)
    {
        Hold h(pacer_.get());
        return sim_.schedule(delay, std::move(fn));
    }

    /** Run @p fn at absolute time @p when; a deadline in the past is
     *  clamped to now (the Simulator itself still rejects one). */
    EventId
    scheduleAt(SimTime when, EventFn fn)
    {
        Hold h(pacer_.get());
        return sim_.scheduleAt(std::max(when, sim_.now()), std::move(fn));
    }

    /** Cancel a pending timer; ignores ids that already fired. */
    void
    cancel(EventId id)
    {
        Hold h(pacer_.get());
        sim_.cancel(id);
    }

    /** Run @p fn as soon as possible, after already-queued work. */
    void
    post(EventFn fn)
    {
        Hold h(pacer_.get());
        sim_.schedule(0.0, std::move(fn));
    }

    // --- transport ------------------------------------------------
    /**
     * Register an endpoint at position (x, y) in the unit square.
     * The caller retains ownership and must removeNode() before the
     * endpoint is destroyed.
     */
    NodeId
    addNode(SimNode *node, double x, double y)
    {
        Hold h(pacer_.get());
        return net_.addNode(node, x, y);
    }

    /** Detach an endpoint; later arrivals for it are dropped. */
    void
    removeNode(NodeId id)
    {
        Hold h(pacer_.get());
        net_.removeNode(id);
    }

    /** Number of registered endpoints. */
    std::size_t
    nodeCount() const
    {
        Hold h(pacer_.get());
        return net_.size();
    }

    /**
     * Send @p msg from @p from to @p to over the (from, to) link.
     * Delivery is asynchronous, after the modeled link latency.  It
     * is per-link FIFO only when the network has jitter 0 and
     * bandwidth 0 (threaded mode's loopbackNetwork): with either term
     * set, Network draws a latency per message and may reorder, and
     * the sim's default NetworkConfig sets both.  Bytes are counted
     * at send time even if the destination is down on arrival (the
     * sender cannot know).
     */
    void
    send(NodeId from, NodeId to, Message msg)
    {
        Hold h(pacer_.get());
        net_.send(from, to, std::move(msg));
    }

    /**
     * Send one payload to every node in @p tos.  Semantically a
     * send() per destination (per-link accounting, liveness checks),
     * but the payload is stored once and shared by reference.
     */
    void
    multicast(NodeId from, const std::vector<NodeId> &tos, Message msg)
    {
        Hold h(pacer_.get());
        net_.multicast(from, tos, std::move(msg));
    }

    /** Modeled one-way latency between two nodes, without jitter. */
    double
    latency(NodeId a, NodeId b) const
    {
        Hold h(pacer_.get());
        return net_.latency(a, b);
    }

    /** Euclidean distance between two node positions. */
    double
    distance(NodeId a, NodeId b) const
    {
        Hold h(pacer_.get());
        return net_.distance(a, b);
    }

    /** Position accessors. */
    double
    xOf(NodeId n) const
    {
        Hold h(pacer_.get());
        return net_.xOf(n);
    }

    double
    yOf(NodeId n) const
    {
        Hold h(pacer_.get());
        return net_.yOf(n);
    }

    /** Mark a node crashed; arrivals for it are silently dropped. */
    void
    setDown(NodeId n)
    {
        Hold h(pacer_.get());
        net_.setDown(n);
    }

    /** Bring a crashed node back. */
    void
    setUp(NodeId n)
    {
        Hold h(pacer_.get());
        net_.setUp(n);
    }

    /** True when the node is up. */
    bool
    isUp(NodeId n) const
    {
        Hold h(pacer_.get());
        return net_.isUp(n);
    }

    /** Total payload+header bytes accepted for transmission. */
    std::uint64_t
    totalBytes() const
    {
        Hold h(pacer_.get());
        return net_.totalBytes();
    }

    /** Total messages accepted for transmission. */
    std::uint64_t
    totalMessages() const
    {
        Hold h(pacer_.get());
        return net_.totalMessages();
    }

    /** Messages accepted but not yet delivered or dropped. */
    std::size_t
    inFlight() const
    {
        Hold h(pacer_.get());
        return net_.inFlight();
    }

    /**
     * A monotone activity stamp used to salt uniqueness-sensitive
     * hashes (request ids).  Sim: the executed-event count, so the
     * value is deterministic; paced: a per-runtime counter, so two
     * client threads never share a stamp.
     */
    std::uint64_t
    uniqueStamp() const
    {
        Hold h(pacer_.get());
        return pacer_ ? pacer_->nextStamp() : sim_.eventsExecuted();
    }

    // --- seeded rng -----------------------------------------------
    /**
     * Derive a 64-bit seed from the runtime's base seed and @p salt.
     * Deterministic on both kinds: the same (base, salt) pair always
     * yields the same value, so components seeded through the
     * runtime replay identically.
     */
    std::uint64_t
    mixSeed(std::uint64_t salt) const
    {
        return mixSeed64(seed_, salt);
    }

    // --- introspection --------------------------------------------
    /**
     * Live health snapshot: due and pending events, messages in
     * flight, loop utilization.  Callable from any thread, including
     * runtime callbacks.
     */
    RuntimeStats stats() const;

    // --- mode & driving -------------------------------------------
    /** True when time is simulated and replay is bit-exact. */
    bool deterministic() const { return !pacer_; }

    /**
     * Drive the runtime until @p pred returns true or the clock
     * passes @p deadline (absolute seconds).  Without a pacer this
     * steps the event loop; with one it re-evaluates @p pred under
     * the loop mutex after every event the loop fires while real
     * time passes.  Returns the final pred() value.
     */
    bool runUntil(const std::function<bool()> &pred, SimTime deadline);

    /** Let @p seconds of runtime time elapse. */
    void advance(SimTime seconds);

    /**
     * Run @p fn exclusively with respect to all runtime callbacks —
     * the entry point for external threads touching protocol state.
     * Without a pacer this is a plain call; with one it takes the
     * loop mutex (reentrant from within a callback).
     */
    void
    execute(const std::function<void()> &fn)
    {
        Hold h(pacer_.get());
        fn();
    }

  private:
    /** The pacer's loop mutex, held across each call; a null check
     *  and nothing more without a pacer. */
    using Hold = Pacer::Hold;

    Simulator &sim_;
    Network &net_;
    std::uint64_t seed_;
    /** Set for RuntimeKind::Threaded only. */
    std::unique_ptr<Pacer> pacer_;
};

/** perfbench/ still calls this; delete with ROADMAP item 9. */
struct ThreadedRuntime
{
    static constexpr bool available() { return true; }
};

} // namespace oceanstore

#endif // OCEANSTORE_RUNTIME_RUNTIME_H
