/**
 * @file
 * The global data location mesh (Section 4.3.3, Figure 3).
 *
 * A highly redundant variant of the Plaxton/Rajaraman/Richa randomized
 * hierarchical distributed data structure.  Every server holds a
 * routing table of neighbor links organized by level: the level-N
 * links of node X point at the closest nodes whose IDs match the
 * lowest N-1 digits of X's ID with every possible value of digit N
 * (one of which is always a loopback link).  Messages route toward a
 * GUID by resolving one digit per hop; surrogate routing (scanning to
 * the next occupied digit) makes the mapping GUID -> root node total
 * and globally consistent.
 *
 * OceanStore-specific extensions implemented here, all from the paper:
 *  - salted GUID hashing for replicated roots (no single point of
 *    failure, DoS resistance);
 *  - redundant backup neighbors per table entry;
 *  - pointer deposit on publish and early-exit lookup on locate;
 *  - online node insertion and removal with table repair;
 *  - soft-state republish so pointers survive server loss.
 */

#ifndef OCEANSTORE_PLAXTON_MESH_H
#define OCEANSTORE_PLAXTON_MESH_H

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/guid.h"
#include "plaxton/pointer_table.h"
#include "runtime/runtime.h"
#include "sim/topology.h"
#include "storage/node_storage.h"
#include "util/random.h"

namespace oceanstore {

/** Tunables for the mesh. */
struct PlaxtonConfig
{
    /** Salt values per GUID: number of replicated roots. */
    unsigned numSalts = 3;
};

/** Result of routing toward a GUID. */
struct RouteResult
{
    std::vector<NodeId> path; //!< Mesh nodes visited (starts at source).
    NodeId root = invalidNode; //!< Final node (the GUID's root).
    double latency = 0.0;     //!< Sum of link latencies along the path.
    bool failed = false;      //!< Progress became impossible (failures).
};

/** Result of a locate() operation. */
struct LocateResult
{
    bool found = false;
    NodeId location = invalidNode; //!< Server hosting a replica.
    unsigned hops = 0;             //!< Mesh hops before the pointer hit.
    double latency = 0.0;          //!< Mesh latency + final direct hop.
    unsigned saltUsed = 0;         //!< Which replicated root answered.
};

/**
 * The distributed mesh, simulated with per-node routing tables over a
 * Runtime that supplies inter-node latencies.
 *
 * Node insertion and removal use the library's recursive need-to-know
 * algorithms; the acknowledged-multicast discovery step of the real
 * system is stood in for by bucket scans over the simulator's global
 * state (documented in DESIGN.md), while the *resulting table
 * invariants* — what the experiments depend on — are maintained
 * exactly.
 */
class PlaxtonMesh
{
  public:
    /**
     * Build a mesh over @p members, which must already be registered
     * with @p net (their NodeIds are used for latency queries).
     * Node GUIDs are assigned pseudo-randomly from @p rng.
     */
    PlaxtonMesh(Runtime &rt, const std::vector<NodeId> &members,
                Rng &rng, PlaxtonConfig cfg = {});

    /** The mesh-assigned GUID of member @p n. */
    const Guid &guidOf(NodeId n) const;

    /** True when the mesh considers @p n alive. */
    bool alive(NodeId n) const;

    /**
     * Route from @p from toward @p target, using surrogate routing.
     * Dead next-hops fall back to backup links, then to other digits.
     */
    RouteResult route(NodeId from, const Guid &target) const;

    /** The root node for @p g (no salting applied). */
    NodeId rootOf(const Guid &g) const;

    /**
     * Publish: object @p g is stored on @p storer.  Routes to each of
     * the numSalts salted roots, depositing a location pointer at
     * every hop (Section 4.3.3 "publishing").
     * @return mesh hops used (for maintenance accounting).
     */
    unsigned publish(const Guid &g, NodeId storer);

    /** Remove @p storer's pointers for @p g along all salted paths. */
    void unpublish(const Guid &g, NodeId storer);

    /**
     * Locate a replica of @p g starting from @p from: climb toward the
     * salted roots, exiting early at the first deposited pointer; the
     * final step routes directly (IP) to the chosen replica.  Salt 0
     * is tried first; later salts only on failure.
     */
    LocateResult locate(NodeId from, const Guid &g) const;

    /**
     * Locate using only salt @p salt (for the single-root ablation;
     * pass 0 and configure numSalts=1 for the paper's baseline).
     */
    LocateResult locateWithSalt(NodeId from, const Guid &g,
                                unsigned salt) const;

    /**
     * Online insertion of a new member (must be registered with the
     * network).  Builds its routing table by routing toward its own
     * ID and copying/optimizing level tables, then updates the tables
     * of nodes that need to know about it.
     */
    void insertNode(NodeId n, const Guid &id);

    /**
     * Remove a node (crash or decommission).  The pointers deposited
     * on it vanish; other nodes repair table entries from backups.
     * Its own publications are kept for restoreNode().
     */
    void removeNode(NodeId n);

    /**
     * Re-admit a removed member after a crash/restart cycle: rebuild
     * its routing table under its durable GUID, announce it to nodes
     * that need to know, and reload the pointer cache persisted in its
     * "ptr/" storage namespace (see attachStorage).  Stale entries —
     * pointers to storers that died while this node was down — are
     * filtered at locate time and purged by the next repair sweep,
     * exactly like ordinary soft-state decay; so are pointers to
     * storers that unpublished the object meanwhile, which locate
     * still returns until that sweep.  Finally re-deposits
     * the pointers to every object @p n publishes, in Guid order
     * (the rest of the mesh purged them while it was down).
     * @return pointers reloaded from storage.
     */
    std::size_t restoreNode(NodeId n);

    /**
     * Attach member @p n's durable storage handle (DESIGN.md section
     * 14; owned by the Universe).  While it runs, every pointer
     * deposited on or removed from @p n is written through to its
     * "ptr/" namespace.  A member without one (the default) keeps its
     * pointers in RAM only.
     */
    void attachStorage(NodeId n, NodeStorage *storage);

    /**
     * Soft-state repair sweep: pointers to dead storers, or to
     * storers that no longer publish the object, are dropped; every
     * alive storer republishes its objects, restoring pointers lost
     * to failed nodes; and every node replaces dead table entries
     * (Section 4.3.3 "maintenance-free operation").
     */
    void repair();

    /** What one beacon sweep observed and did. */
    struct BeaconReport
    {
        unsigned suspects = 0;    //!< Newly suspected (first miss).
        unsigned evicted = 0;     //!< Removed after a second miss.
        unsigned reinstated = 0;  //!< Suspects that answered again.
    };

    /**
     * Soft-state beacon sweep with a second-chance algorithm
     * (Section 4.3.3): a member that misses one beacon becomes
     * *suspect* — routed around, but its table entries and pointers
     * are kept; a suspect that misses a second consecutive beacon is
     * evicted (removeNode); a suspect that answers again is
     * reinstated at no recovery cost.
     */
    BeaconReport beaconSweep();

    /** True when @p n is currently under suspicion. */
    bool isSuspect(NodeId n) const;

    /** All objects published by @p storer (for repair sweeps). */
    std::vector<Guid> objectsPublishedBy(NodeId storer) const;

    /** Member NodeIds (alive and dead). */
    const std::vector<NodeId> &members() const { return members_; }

  private:
    /** Routing levels maintained (enough for ~16^8 nodes). */
    static constexpr unsigned levels = 8;
    /** Neighbors kept per (level, digit) entry: a primary and two
     *  backups. */
    static constexpr unsigned entryWidth = 3;

    struct Entry
    {
        /** Primary plus backup neighbors, closest first (by latency,
         *  then NodeId); invalidNode pads a short entry. */
        NodeId candidates[entryWidth] = {invalidNode, invalidNode,
                                         invalidNode};
    };

    struct NodeState
    {
        Guid id;
        bool alive = true;
        /** Missed the last beacon (second-chance state). */
        bool suspect = false;
        /** table[level * digitBase + digit]. */
        std::vector<Entry> table;
        /** Location pointers deposited here: object GUID -> storers. */
        PointerTable pointers;
        /** Objects this member has published, ascending.  Drives
         *  repair and restore, which republish in this order. */
        std::vector<Guid> published;
        /** Durable pointer cache; null for a RAM-only member. */
        NodeStorage *storage = nullptr;
    };

    /** Where a walk along a route ended. */
    struct WalkEnd
    {
        NodeId root = invalidNode; //!< Last node reached.
        double latency = 0.0;      //!< Link latencies summed so far.
        unsigned hops = 0;         //!< Links crossed.
        bool failed = false;       //!< As RouteResult::failed.
    };

    /** No member has this NodeId (slot_ filler). */
    static constexpr std::uint32_t noSlot = ~0u;

    /** Index into states_ for a member; fatal for any other node. */
    std::size_t indexOf(NodeId n) const;

    /** Index into states_ for @p n, or noSlot when not a member. */
    std::uint32_t slotOf(NodeId n) const
    {
        return n < slot_.size() ? slot_[n] : noSlot;
    }

    /** Record member @p n at states_ index @p idx. */
    void addSlot(NodeId n, std::size_t idx);

    /**
     * Route from @p from toward @p target as route() does, calling
     * @p visit(node, latency so far, hops so far) at every node it
     * reaches, the source first; a visit returning true ends the walk
     * there (what it returns then describes the walk up to that node).
     */
    template <typename Visit>
    WalkEnd walk(NodeId from, const Guid &target, Visit &&visit) const;

    /** Fill (or refill) one node's entire routing table. */
    void buildTable(std::size_t idx);

    /** Insert @p idx into other nodes' tables where it qualifies. */
    void announce(std::size_t idx);

    /** Pick the best alive candidate of an entry, or invalidNode. */
    NodeId aliveCandidate(const Entry &e) const;

    /**
     * Offer @p n, at latency @p lat from the entry's owner, to @p e,
     * whose candidates are at latencies @p lats: it takes its place
     * if it is among the entryWidth closest.  Keeping the closest
     * while offering every candidate once picks what sorting them all
     * would.
     */
    static void offer(Entry &e, double *lats, NodeId n, double lat);

    /** Deposit pointers along the path to one salted root. */
    unsigned publishOne(const Guid &salted, const Guid &g, NodeId storer);

    /** True when @p storer currently publishes @p g. */
    bool publishes(NodeId storer, const Guid &g) const;

    /** Storage key of one deposited pointer. */
    static std::string pointerKey(const Guid &g, NodeId storer);

    /** Write-through of a pointer deposit on member @p n. */
    void persistPointer(NodeId n, const Guid &g, NodeId storer);

    /** Write-through of a pointer removal on member @p n. */
    void unpersistPointer(NodeId n, const Guid &g, NodeId storer);

    Runtime &rt_;
    PlaxtonConfig cfg_;
    std::vector<NodeId> members_;
    /** NodeId -> index into states_ (noSlot for a non-member): an
     *  array read on every route hop. */
    std::vector<std::uint32_t> slot_;
    std::vector<NodeState> states_;
};

} // namespace oceanstore

#endif // OCEANSTORE_PLAXTON_MESH_H
