/**
 * @file
 * Probabilistic data location (Section 4.3.2, Figure 2).
 *
 * The fast, fully distributed first tier of OceanStore's two-tier
 * location mechanism.  Each node records its local objects in a Bloom
 * filter and stores, for each outgoing overlay edge, an attenuated
 * Bloom filter summarizing objects reachable through that edge at
 * each distance.  Queries hill-climb: route along the edge whose
 * filter indicates the object at the smallest distance.  When no
 * filter matches (or a TTL expires chasing false positives), the
 * query falls back to the deterministic global algorithm
 * (src/plaxton).
 */

#ifndef OCEANSTORE_BLOOM_LOCATION_SERVICE_H
#define OCEANSTORE_BLOOM_LOCATION_SERVICE_H

#include <cstddef>
#include <vector>

#include "bloom/attenuated.h"
#include "sim/topology.h"

namespace oceanstore {

/** Outcome of one probabilistic query. */
struct BloomQueryResult
{
    bool found = false;       //!< Object located within the TTL.
    NodeId location = invalidNode; //!< Node holding the object.
    unsigned hops = 0;        //!< Overlay hops traveled.
    std::vector<NodeId> path; //!< Nodes visited, starting at source.
    bool fellBack = false;    //!< Query must go to the global tier.
};

/** Tunables for the probabilistic tier. */
struct BloomLocationConfig
{
    unsigned depth = 3;        //!< Attenuation depth D.
    std::size_t bits = 2048;   //!< Width of each level filter.
    unsigned ttl = 12;         //!< Max hops before falling back.
};

/**
 * The probabilistic location tier over an overlay topology.
 *
 * Filters are maintained with the recursive "any path" semantics of
 * the paper: the level-i filter of edge n->b is the union of the
 * level-(i-1) filters of b's outgoing edges (excluding the immediate
 * reverse edge), with level 1 equal to b's local filter.  Filter
 * recomputation is modelled as neighbor gossip and its byte cost is
 * tracked.
 */
class BloomLocationService
{
  public:
    BloomLocationService(const Topology &topo,
                         BloomLocationConfig cfg = {});

    /**
     * Place an object replica on node @p n.
     *
     * When the filters are current, the new GUID is propagated
     * *incrementally*: a backward walk over (edge, depth) states sets
     * exactly the bits a full rebuild would, shipping per-edge deltas
     * instead of whole filters — the cheap steady-state maintenance
     * path.  (Removals still force a rebuild: Bloom bits cannot be
     * cleared.)
     */
    void addObject(NodeId n, const Guid &g);

    /**
     * Remove a replica.  Bloom filters cannot delete, so this clears
     * the authoritative set and forces a filter rebuild.
     */
    void removeObject(NodeId n, const Guid &g);

    /** True when node @p n really holds @p g (authoritative check). */
    bool hasObject(NodeId n, const Guid &g) const;

    /**
     * Route a query for @p g starting at @p from (Figure 2).  Uses
     * current filters; rebuilds them first if stale.
     */
    BloomQueryResult query(NodeId from, const Guid &g);

    /**
     * Apply a "reliability factor" (Section 4.3.2): add @p amount to
     * the apparent distance of everything advertised through the edge
     * from->to, routing around nodes that have abused the protocol.
     */
    void penalize(NodeId from, NodeId to, unsigned amount);

    /** Recompute every attenuated filter from the local sets. */
    void rebuildFilters();

    /** Cumulative gossip bytes spent maintaining filters. */
    std::uint64_t gossipBytes() const { return gossipBytes_; }

    /** Per-node per-edge filter storage in bytes (constant per node). */
    std::size_t storagePerNode(NodeId n) const;

    /** The attenuated filter on edge from->to (for tests). */
    const AttenuatedBloomFilter &edgeFilter(NodeId from, NodeId to) const;

  private:
    unsigned edgeIndex(NodeId from, NodeId to) const;

    /** Set @p g's bits in every (edge, depth) state reachable from
     *  the holder @p n, mirroring the rebuild recursion exactly. */
    void propagateInsert(NodeId n, const Guid &g);

    const Topology &topo_;
    BloomLocationConfig cfg_;
    bool dirty_ = true;
    std::uint64_t gossipBytes_ = 0;

    /** Authoritative local object sets, each sorted: hasObject() runs
     *  at every query hop and is one binary search. */
    std::vector<std::vector<Guid>> localSets_;
    /** Local Bloom filters (level 0 of the node itself). */
    std::vector<BloomFilter> localFilters_;
    /** Directed edge n -> adjacency[n][j] is edgeBase_[n] + j in a
     *  flat numbering of every edge (propagateInsert's visited set). */
    std::vector<std::size_t> edgeBase_;
    /** edgeFilters_[n][j] covers edge n -> adjacency[n][j]. */
    std::vector<std::vector<AttenuatedBloomFilter>> edgeFilters_;
    /** Reliability penalties, keyed like edgeFilters_. */
    std::vector<std::vector<unsigned>> penalties_;
};

} // namespace oceanstore

#endif // OCEANSTORE_BLOOM_LOCATION_SERVICE_H
