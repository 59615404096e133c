/**
 * @file
 * Adversarial message-level fault injection.
 *
 * The paper's substrate is "untrusted infrastructure" in a "constant
 * state of flux" (Sections 1, 4.7): links lose, duplicate and delay
 * messages, and partitions open and heal.  The FaultInjector applies
 * exactly those faults to Network::send/multicast from a declarative
 * FaultPlan — seeded, so every chaos scenario replays bit-for-bit
 * under the trace-hash discipline (DESIGN.md section 8), and
 * zero-cost when no injector is attached (a single null pointer check
 * on the send path).
 *
 * The injector also folds every routed send decision into an FNV-1a
 * trace hash, giving chaos tests an order-sensitive fingerprint of
 * the full message stream without instrumenting protocol nodes.
 */

#ifndef OCEANSTORE_SIM_FAULT_H
#define OCEANSTORE_SIM_FAULT_H

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "sim/message.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/random.h"

namespace oceanstore {

/** Declarative description of the faults to inject. */
struct FaultPlan
{
    /** Probability an individual message is silently dropped. */
    double drop = 0.0;
    /** Probability a delivered message arrives twice. */
    double duplicate = 0.0;
    /** Extra delivery delay: uniform in [0, delayJitter] seconds. */
    double delayJitter = 0.0;

    /** Per-link drop override (applies instead of the global rate). */
    struct LinkFault
    {
        NodeId from = invalidNode;
        NodeId to = invalidNode;
        double drop = 0.0;
    };
    std::vector<LinkFault> links{};

    /** One scheduled partition/heal cycle: at splitAt the nodes in
     *  @c groupA are split away from everyone else; at healAt the
     *  partition is merged back. */
    struct PartitionCycle
    {
        double splitAt = 0.0;
        double healAt = 0.0;
        std::vector<NodeId> groupA;
    };
    std::vector<PartitionCycle> partitions{};

    /** Seed for every drop/duplicate/delay decision. */
    std::uint64_t seed = 0xfa017u;
};

/**
 * Applies a FaultPlan to a Network.  Construct, then arm(): the
 * injector attaches itself to the network's send path and schedules
 * the plan's partition/heal cycles on the simulator.
 */
class FaultInjector
{
  public:
    /** Per-message decision returned to the network. */
    struct Verdict
    {
        bool drop = false;
        bool duplicate = false;
        double extraDelay = 0.0;
    };

    FaultInjector(Simulator &sim, Network &net, FaultPlan plan);
    ~FaultInjector();

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /** Attach to the network and schedule partition cycles. */
    void arm();

    /** Detach from the network (scheduled partitions still fire;
     *  only destruction cancels them). */
    void disarm();

    /**
     * Consulted by Network for every (sender-alive) transmission.
     * Deterministic: one seeded rng drives every decision, and each
     * call folds (from, to, bytes, verdict) into the trace hash.
     */
    Verdict onSend(NodeId from, NodeId to, std::size_t bytes);

    /** Messages dropped by the injector. */
    std::uint64_t dropped() const { return dropped_; }

    /** Messages duplicated by the injector. */
    std::uint64_t duplicated() const { return duplicated_; }

    /** Messages given extra delay. */
    std::uint64_t delayed() const { return delayed_; }

    /** Sends inspected (fault decisions made). */
    std::uint64_t inspected() const { return inspected_; }

    /** Order-sensitive FNV-1a hash over every send decision. */
    std::uint64_t traceHash() const { return trace_; }

    /** The plan in force. */
    const FaultPlan &plan() const { return plan_; }

  private:
    void mix(std::uint64_t v);

    Simulator &sim_;
    Network &net_;
    FaultPlan plan_;
    Rng rng_;
    bool armed_ = false;
    /** Pending partition/heal events: the destructor cancels these so
     *  a dead injector's closures can never fire. */
    std::vector<EventId> cycleEvents_;
    /** (from, to) -> drop override, built from plan.links. */
    std::map<std::pair<NodeId, NodeId>, double> linkDrop_;
    std::uint64_t dropped_ = 0;
    std::uint64_t duplicated_ = 0;
    std::uint64_t delayed_ = 0;
    std::uint64_t inspected_ = 0;
    std::uint64_t trace_ = 1469598103934665603ull;
};

} // namespace oceanstore

#endif // OCEANSTORE_SIM_FAULT_H
