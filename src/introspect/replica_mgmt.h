/**
 * @file
 * Introspective replica management (Section 4.7.2).
 *
 * "Replica management adjusts the number and location of floating
 * replicas in order to service access requests more efficiently.
 * Event handlers monitor client requests and system load ... When
 * access requests overwhelm a replica, it forwards a request for
 * assistance to its parent node.  The parent ... can create
 * additional floating replicas on nearby nodes to alleviate load.
 * Conversely, replica management eliminates floating replicas that
 * have fallen into disuse."
 */

#ifndef OCEANSTORE_INTROSPECT_REPLICA_MGMT_H
#define OCEANSTORE_INTROSPECT_REPLICA_MGMT_H

#include <map>
#include <utility>
#include <vector>

#include "crypto/guid.h"
#include "sim/message.h"

namespace oceanstore {

/** Per-replica load observation for one decision epoch. */
struct ReplicaLoad
{
    Guid object;
    NodeId host = invalidNode;
    std::uint64_t requests = 0; //!< Requests served this epoch.
};

/** A decision the policy wants enacted. */
struct ReplicaAction
{
    enum class Kind
    {
        Create, //!< Spawn a replica of `object` near `target`.
        Retire, //!< Remove the replica of `object` on `target`.
    };

    Kind kind;
    Guid object;
    NodeId target = invalidNode;
};

/** Tunables for the replica-management policy. */
struct ReplicaPolicyConfig
{
    /** Requests/epoch above which a replica asks for help. */
    std::uint64_t overloadThreshold = 100;
    /** Requests/epoch below which a replica is considered disused. */
    std::uint64_t disuseThreshold = 2;
    /** Never retire below this many replicas per object. */
    unsigned minReplicas = 1;
    /** Never grow beyond this many replicas per object. */
    unsigned maxReplicas = 16;
};

/** Nodes eligible to host a new replica of an object, ranked
 *  nearest-first, keyed by the (object, host) replica asking for
 *  help: one host can hold several objects with different readers. */
using ReplicaCandidates =
    std::map<std::pair<Guid, NodeId>, std::vector<NodeId>>;

/**
 * The decision policy: consumes one epoch of load observations and
 * emits create/retire actions.  Pure logic, no I/O — the embedding
 * server enacts the actions (creating floating replicas and updating
 * the location mesh).
 */
class ReplicaManager
{
  public:
    explicit ReplicaManager(ReplicaPolicyConfig cfg = {});

    /**
     * Decide actions for an epoch.
     *
     * @param loads      one entry per (object, host) replica
     * @param candidates nodes eligible to host new replicas, ranked
     *                   nearest-first for each overloaded replica by
     *                   the caller
     */
    std::vector<ReplicaAction>
    decide(const std::vector<ReplicaLoad> &loads,
           const ReplicaCandidates &candidates) const;

    /** The policy configuration. */
    const ReplicaPolicyConfig &config() const { return cfg_; }

  private:
    ReplicaPolicyConfig cfg_;
};

} // namespace oceanstore

#endif // OCEANSTORE_INTROSPECT_REPLICA_MGMT_H
