/**
 * @file
 * The Runtime seam (DESIGN.md section 15).
 *
 * Every protocol state machine in the tree — PBFT, the secondary
 * tier, the Plaxton mesh, archival, the failure detector, the
 * Universe itself — drives its clock, timers and transport through
 * this narrow interface instead of binding to sim::Simulator
 * directly.  Both implementations wrap the same discrete-event
 * Simulator + Network pair; they differ only in who drives it:
 *
 *  - SimRuntime (sim_runtime.h): the caller steps the loop
 *    (runUntil/advance), in virtual time.  A protocol stack on
 *    SimRuntime is byte-identical (same seeds, same trace hashes) to
 *    one wired to the simulator directly.
 *
 *  - ThreadedRuntime (threaded_runtime.h): a loop thread fires events
 *    as the wall clock reaches them, while client threads enter
 *    through execute().
 *
 * The interface reuses the simulator's vocabulary types (SimTime in
 * seconds, EventId, Message, SimNode), so neither adapter adds a
 * translation layer; on the threaded backend SimTime tracks wall
 * seconds since runtime start.
 *
 * Threading contract: on SimRuntime everything is single-threaded.
 * On ThreadedRuntime, timer callbacks, message handlers and posted
 * tasks all run on the loop thread under one mutex, and execute()
 * (like every other Runtime call) takes that mutex for a client
 * thread, so protocol objects need no locking of their own.
 */

#ifndef OCEANSTORE_RUNTIME_RUNTIME_H
#define OCEANSTORE_RUNTIME_RUNTIME_H

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_fn.h"
#include "sim/network.h"

namespace oceanstore {

/** Mix a base seed with a salt (SplitMix64 finalizer), so both
 *  backends hand out reproducible per-component seeds. */
inline std::uint64_t
mixSeed64(std::uint64_t base, std::uint64_t salt)
{
    std::uint64_t z = base + 0x9e3779b97f4a7c15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * Health snapshot of a Runtime backend (DESIGN.md section 16): how
 * much work is waiting and how busy the loop is *right now*.  Fields
 * with no analogue on a backend stay zero (on the sim the caller's
 * thread is the loop).  Published as `runtime.*` gauges by
 * publishRuntimeStats() (runtime/stats.h) and rendered into
 * Universe::statusReport().
 */
struct RuntimeStats
{
    /** Clock seconds since the runtime started (sim time / wall). */
    double uptime = 0.0;
    /** Events already due but not yet fired (never future timers). */
    std::size_t strandQueueDepth = 0;
    /** Events scheduled and not yet fired or cancelled, deliveries
     *  included. */
    std::size_t timersPending = 0;
    /** Messages accepted but not yet delivered or dropped
     *  (Network::inFlight()). */
    std::size_t linkQueuedMessages = 0;
    /** Loop threads firing events (1 threaded, 0 on sim). */
    std::size_t workers = 0;
    /** Callbacks (events) executed since start. */
    std::uint64_t tasksExecuted = 0;
    /** Share of wall time the loop spent firing events, [0, 1]
     *  (0 on sim, whose event loop is the caller's thread). */
    double workerUtilization = 0.0;
};

/** Narrow clock/timer/transport interface both backends implement. */
class Runtime
{
  public:
    virtual ~Runtime() = default;

    // --- clock & timers -------------------------------------------
    /** Current time in seconds (sim time or wall time since start). */
    virtual SimTime now() const = 0;

    /**
     * Run @p fn once after @p delay seconds.  The returned id stays
     * valid for cancel() until the callback has run.
     */
    virtual EventId schedule(SimTime delay, EventFn fn) = 0;

    /** Run @p fn at absolute time @p when; a deadline in the past
     *  is clamped to now on both backends. */
    virtual EventId scheduleAt(SimTime when, EventFn fn) = 0;

    /** Cancel a pending timer; ignores ids that already fired. */
    virtual void cancel(EventId id) = 0;

    /** Run @p fn as soon as possible, after already-queued work. */
    virtual void post(EventFn fn) = 0;

    // --- transport ------------------------------------------------
    /**
     * Register an endpoint at position (x, y) in the unit square.
     * The caller retains ownership and must removeNode() before the
     * endpoint is destroyed.
     */
    virtual NodeId addNode(SimNode *node, double x, double y) = 0;

    /** Detach an endpoint; later arrivals for it are dropped. */
    virtual void removeNode(NodeId id) = 0;

    /** Number of registered endpoints. */
    virtual std::size_t nodeCount() const = 0;

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
    virtual void send(NodeId from, NodeId to, Message msg) = 0;

    /**
     * Send one payload to every node in @p tos.  Semantically a
     * send() per destination (per-link accounting, liveness checks),
     * but the payload is stored once and shared by reference.
     */
    virtual void multicast(NodeId from, const std::vector<NodeId> &tos,
                           Message msg) = 0;

    /** Modeled one-way latency between two nodes, without jitter. */
    virtual double latency(NodeId a, NodeId b) const = 0;

    /** Euclidean distance between two node positions. */
    virtual double distance(NodeId a, NodeId b) const = 0;

    /** Position accessors. */
    virtual double xOf(NodeId n) const = 0;
    virtual double yOf(NodeId n) const = 0;

    /** Mark a node crashed; arrivals for it are silently dropped. */
    virtual void setDown(NodeId n) = 0;

    /** Bring a crashed node back. */
    virtual void setUp(NodeId n) = 0;

    /** True when the node is up. */
    virtual bool isUp(NodeId n) const = 0;

    /** Total payload+header bytes accepted for transmission. */
    virtual std::uint64_t totalBytes() const = 0;

    /** Total messages accepted for transmission. */
    virtual std::uint64_t totalMessages() const = 0;

    /** Messages accepted but not yet delivered or dropped. */
    virtual std::size_t inFlight() const = 0;

    /**
     * A monotone activity stamp used to salt uniqueness-sensitive
     * hashes (request ids).  Sim: the executed-event count, so the
     * value is deterministic; threaded: a per-runtime counter, so two
     * client threads never share a stamp.
     */
    virtual std::uint64_t uniqueStamp() const = 0;

    // --- seeded rng -----------------------------------------------
    /**
     * Derive a 64-bit seed from the runtime's base seed and @p salt.
     * Deterministic on both backends: the same (base, salt) pair
     * always yields the same value, so components seeded through the
     * runtime replay identically.
     */
    virtual std::uint64_t mixSeed(std::uint64_t salt) const = 0;

    // --- introspection --------------------------------------------
    /**
     * Live health snapshot: due and pending events, messages in
     * flight, loop utilization.  Callable from any thread, including
     * runtime callbacks.
     */
    virtual RuntimeStats stats() const = 0;

    // --- mode & driving -------------------------------------------
    /** True when time is simulated and replay is bit-exact. */
    virtual bool deterministic() const = 0;

    /**
     * Drive the runtime until @p pred returns true or the clock
     * passes @p deadline (absolute seconds).  On the sim backend
     * this steps the event loop; on the threaded backend it
     * re-evaluates @p pred under the loop mutex after every event
     * the loop fires while real time passes.  Returns the final
     * pred() value.
     */
    virtual bool runUntil(const std::function<bool()> &pred,
                          SimTime deadline) = 0;

    /** Let @p seconds of runtime time elapse. */
    virtual void advance(SimTime seconds) = 0;

    /**
     * Run @p fn exclusively with respect to all runtime callbacks —
     * the entry point for external threads touching protocol state.
     * On SimRuntime this is a plain call; on ThreadedRuntime it
     * takes the loop mutex (reentrant from within a callback).
     */
    virtual void execute(const std::function<void()> &fn) = 0;
};

} // namespace oceanstore

#endif // OCEANSTORE_RUNTIME_RUNTIME_H
