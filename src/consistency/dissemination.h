/**
 * @file
 * Dissemination trees (Section 4.4.3, Figure 5c).
 *
 * Secondary replicas "are organized into one or more application-level
 * multicast trees ... that serve as conduits of information between
 * the primary tier and secondary tier."  The tree pushes committed
 * updates downward and serves as the path along which children pull
 * missing state from parents.
 *
 * Construction is greedy latency-aware: members join in order of
 * latency from the root, each choosing the closest already-joined
 * node with spare fanout as its parent — the shape OceanStore's
 * introspective tree-building converges to.
 */

#ifndef OCEANSTORE_CONSISTENCY_DISSEMINATION_H
#define OCEANSTORE_CONSISTENCY_DISSEMINATION_H

#include <cstdint>
#include <vector>

#include "runtime/runtime.h"

namespace oceanstore {

/** An application-level multicast tree over secondary replicas. */
class DisseminationTree
{
  public:
    /**
     * @param rt      runtime (clock, transport, latency source)
     * @param root    injection point (a primary-tier contact node)
     * @param members secondary replicas to organize
     * @param fanout  maximum children per node
     */
    DisseminationTree(Runtime &rt, NodeId root,
                      const std::vector<NodeId> &members,
                      unsigned fanout = 4);

    /**
     * Parent of @p n.  The root's parent — and the parent of any node
     * that is not (or no longer) a member, e.g. one that was down
     * during a rebuild — is invalidNode.
     */
    NodeId parentOf(NodeId n) const;

    /** Children of @p n (empty for leaves and non-members). */
    const std::vector<NodeId> &childrenOf(NodeId n) const;

    /** True when @p n is the root or a member of this tree. */
    bool contains(NodeId n) const;

    /** The root node. */
    NodeId root() const { return root_; }

    /** All members (excluding the root). */
    const std::vector<NodeId> &members() const { return members_; }

    /** Tree depth (root = 0). */
    unsigned depth() const;

    /** True when @p n has no children (an invalidation leaf). */
    bool isLeaf(NodeId n) const { return childrenOf(n).empty(); }

    /**
     * Worst-case propagation latency root -> leaf, the sum of link
     * latencies along the deepest path.
     */
    double maxLatency() const;

    /**
     * Total bytes to multicast one @p payload_bytes message to every
     * member (one copy per tree edge).
     */
    std::uint64_t multicastBytes(std::size_t payload_bytes) const;

  private:
    /** Index of @p n in all_, or all_.size() for a non-member. */
    std::size_t slot(NodeId n) const;

    Runtime &rt_;
    NodeId root_;
    std::vector<NodeId> members_;
    /** Index maps for root + members. */
    std::vector<NodeId> all_;
    std::vector<NodeId> parent_;
    std::vector<std::vector<NodeId>> children_;
    /** Dense NodeId -> slot table (all_.size() = not a member), built
     *  once so every lookup is O(1).  NodeIds are small network
     *  indices, so the table is as long as the largest one. */
    std::vector<std::uint32_t> slotOf_;
};

} // namespace oceanstore

#endif // OCEANSTORE_CONSISTENCY_DISSEMINATION_H
