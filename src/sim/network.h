/**
 * @file
 * Simulated wide-area network.
 *
 * Models point-to-point IP delivery between simulated nodes: latency
 * derived from geometric node positions (plus a per-message jitter and
 * a bandwidth term), byte accounting for every link crossing, message
 * drops, node failures and network partitions.  The OceanStore routing
 * layer (Section 4.3) runs *on top of* this, exactly as the paper's
 * layer runs on top of IP.
 *
 * Hot path (DESIGN.md section 9): in-flight messages live in a pooled
 * store — the scheduled delivery closure captures only (pool index,
 * destination), which fits the simulator's inline EventFn buffer, so
 * a send costs no closure heap allocation.  multicast() ships one
 * payload to many destinations through a single reference-counted
 * pool slot instead of one deep Message copy per receiver.
 */

#ifndef OCEANSTORE_SIM_NETWORK_H
#define OCEANSTORE_SIM_NETWORK_H

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/message.h"
#include "sim/simulator.h"
#include "util/bytes.h"
#include "util/mutex.h"
#include "util/random.h"
#include "util/stats.h"

namespace oceanstore {

class FaultInjector;

/** Interface every simulated protocol endpoint implements. */
class SimNode
{
  public:
    virtual ~SimNode() = default;

    /**
     * Deliver a message sent to this node.  The reference is only
     * valid for the duration of the call (multicast receivers share
     * one pooled payload); copy whatever must outlive it.
     */
    virtual void handleMessage(const Message &msg) = 0;
};

/** Wire framing hook, installed by a paced runtime: each
 *  transmission is encoded once and every delivery is verified before
 *  the handler runs.  Declared here so sim/ does not depend on runtime/. */
struct FrameCodec
{
    /** Encode @p msg's frame into @p out. */
    void (*encode)(const Message &msg, Bytes &out);

    /** Check @p frame against @p msg; false drops the delivery. */
    bool (*verify)(const Bytes &frame, const Message &msg);
};

/** Tunables for the network model. */
struct NetworkConfig
{
    /** Fixed per-message one-way latency floor, seconds. */
    double baseLatency = 0.005;
    /** Extra latency per unit of geometric distance, seconds. */
    double latencyPerUnit = 0.100;
    /** Link bandwidth in bytes/second (0 = infinite). */
    double bandwidth = 10e6;
    /** Fractional latency jitter (uniform +/-). */
    double jitter = 0.05;
    /** Probability an individual message is silently dropped. */
    double dropRate = 0.0;
    /** Seed for jitter/drop randomness. */
    std::uint64_t seed = 0x6e657477u;
};

/**
 * The simulated network: node registry, positions, delivery and
 * accounting.
 */
class Network
{
  public:
    Network(Simulator &sim, NetworkConfig cfg = {});

    /**
     * Register a node at geometric position (x, y) in the unit square.
     * The caller retains ownership of @p node.
     */
    NodeId addNode(SimNode *node, double x, double y);

    /**
     * Detach @p id's endpoint: the slot stays allocated (ids are
     * stable) but messages arriving for it are dropped like arrivals
     * at a downed node.  Call from the destructor of any SimNode
     * that can die before the network — in-flight deliveries hold
     * the id, not the pointer, and must not touch a freed endpoint.
     */
    void removeNode(NodeId id);

    /** Number of registered nodes. */
    std::size_t size() const { return nodes_.size(); }

    /**
     * Send @p msg from @p from to @p to.  Delivery is scheduled after
     * the link latency; bytes are counted even if the destination is
     * down on arrival (the sender cannot know).  Messages to downed or
     * partitioned-away destinations are dropped at arrival time.
     */
    void send(NodeId from, NodeId to, Message msg);

    /**
     * Send one message from @p from to every node in @p tos — the
     * batched fan-out path for protocol broadcast/tree-push.
     * Semantically identical to a send() per destination (per-link
     * byte accounting, per-destination jitter/drop/liveness), but the
     * payload is stored once and shared by reference across all
     * deliveries instead of deep-copied per receiver.
     */
    void multicast(NodeId from, const std::vector<NodeId> &tos,
                   Message msg);

    /** One-way latency between two nodes, without jitter or bandwidth. */
    double latency(NodeId a, NodeId b) const;

    /** Euclidean distance between two node positions. */
    double distance(NodeId a, NodeId b) const;

    /** Position accessors. */
    double xOf(NodeId n) const { return pos_[n].first; }
    double yOf(NodeId n) const { return pos_[n].second; }

    /** Mark a node crashed; it silently loses all arriving messages. */
    void setDown(NodeId n);

    /** Bring a crashed node back. */
    void setUp(NodeId n);

    /** True when the node is up. */
    bool isUp(NodeId n) const { return up_[n]; }

    /**
     * Assign a partition id to a node.  Messages are only delivered
     * between nodes in the same partition.  Default partition is 0.
     */
    void setPartition(NodeId n, int partition);

    /** Remove all partitions (everyone back to partition 0). */
    void healPartitions();

    /**
     * Heal the split between two partitions: every node in partition
     * @p b moves to partition @p a, so traffic flows between the two
     * groups again.  Other partitions are untouched.
     */
    void heal(int a, int b);

    /** Remove all partitions; alias of healPartitions(). */
    void healAll() { healPartitions(); }

    /** Set the global message drop probability. */
    void setDropRate(double p) { cfg_.dropRate = p; }

    /**
     * Attach (or with nullptr detach) a fault injector consulted for
     * every transmission whose sender is alive.  When none is
     * attached the send path pays exactly one null check.
     */
    void setFaultInjector(FaultInjector *f) { fault_ = f; }

    /** The attached fault injector (nullptr when faults are off). */
    FaultInjector *faultInjector() const { return fault_; }

    /** Attach (or with nullptr detach) a frame codec; when none is
     *  attached the send and delivery paths pay one null check. */
    void setFrameCodec(const FrameCodec *c) { codec_ = c; }

    /** Total payload+header bytes sent so far. */
    std::uint64_t totalBytes() const { return totalBytes_; }

    /** Total messages sent so far. */
    std::uint64_t totalMessages() const { return totalMessages_; }

    /** In-flight messages (scheduled, not yet delivered or dropped). */
    std::size_t
    inFlight() const OS_EXCLUDES(mu_)
    {
        MutexLock lock(mu_);
        return inFlight_;
    }

    /** Reset the byte/message counters (not node state). */
    void resetCounters();

    /** Per-message-type byte counters, for protocol cost breakdowns. */
    const Counters &byteCounters() const { return byType_; }

    /** The simulator driving this network. */
    Simulator &sim() { return sim_; }

  private:
    /** One pooled in-flight payload, shared by @c refs deliveries. */
    struct Flight
    {
        Message msg;
        std::uint32_t refs = 0;
        /** Encoded frame, shared by every leg (codec attached only). */
        Bytes frame;
    };

    std::uint32_t allocFlight(Message &&msg) OS_EXCLUDES(mu_);
    void releaseFlight(std::uint32_t flight) OS_EXCLUDES(mu_);
    /** Add one delivery reference to a pooled flight. */
    void pinFlight(std::uint32_t flight) OS_EXCLUDES(mu_);
    /** The pooled flight @p flight.  The reference stays valid across
     *  reentrant sends (deque slots are stable) and is only mutated
     *  once the last reference is released. */
    const Flight &flightOf(std::uint32_t flight) const OS_EXCLUDES(mu_);
    /** Jitter/bandwidth-adjusted delivery latency; consumes rng. */
    double deliveryLatency(NodeId from, NodeId to, std::size_t bytes);
    void scheduleDelivery(std::uint32_t flight, NodeId to, double lat);
    void deliver(std::uint32_t flight, NodeId to);

    Simulator &sim_;
    NetworkConfig cfg_;
    Rng rng_;
    FaultInjector *fault_ = nullptr;
    const FrameCodec *codec_ = nullptr;
    std::vector<SimNode *> nodes_;
    std::vector<std::pair<double, double>> pos_;
    std::vector<bool> up_;
    std::vector<int> partition_;
    std::uint64_t totalBytes_ = 0;
    std::uint64_t totalMessages_ = 0;

    /** Guards the pooled flight store. */
    mutable Mutex mu_;

    std::size_t inFlight_ OS_GUARDED_BY(mu_) = 0;
    /** deque: references into flights_ stay valid while handlers
     *  reentrantly send (and thus allocate) new flights. */
    std::deque<Flight> flights_ OS_GUARDED_BY(mu_);
    std::vector<std::uint32_t> freeFlights_ OS_GUARDED_BY(mu_);
    Counters byType_;
};

} // namespace oceanstore

#endif // OCEANSTORE_SIM_NETWORK_H
