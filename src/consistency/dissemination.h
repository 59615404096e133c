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
#include <span>
#include <utility>
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

    /** Children of @p n in join order (empty for leaves and
     *  non-members); valid as long as the tree. */
    std::span<const NodeId> childrenOf(NodeId n) const;

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
    /** Index of @p n (0 = root, i = members_[i - 1]), or size() for
     *  a non-member. */
    std::size_t slot(NodeId n) const;
    /** Root plus members. */
    std::size_t size() const { return members_.size() + 1; }

    Runtime &rt_;
    NodeId root_;
    std::vector<NodeId> members_;
    /** Per index: the parent (invalidNode for the root). */
    std::vector<NodeId> parent_;
    /** The children of index i are children_[childStart_[i]] up to
     *  children_[childStart_[i + 1]], in join order. */
    std::vector<std::uint32_t> childStart_;
    std::vector<NodeId> children_;
    /** (NodeId, index) sorted by NodeId, a repeated id keeping its
     *  first index: lookups binary-search it, so the tree costs
     *  O(size) however large the NodeIds are. */
    std::vector<std::pair<NodeId, std::uint32_t>> index_;
};

} // namespace oceanstore

#endif // OCEANSTORE_CONSISTENCY_DISSEMINATION_H
