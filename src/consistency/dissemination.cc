#include "consistency/dissemination.h"

#include <algorithm>

#include "util/check.h"
#include "util/logging.h"

namespace oceanstore {

DisseminationTree::DisseminationTree(Runtime &rt, NodeId root,
                                     const std::vector<NodeId> &members,
                                     unsigned fanout)
    : rt_(rt), root_(root), members_(members)
{
    OS_CHECK(fanout > 0, "DisseminationTree: zero fanout");
    index_.reserve(size());
    for (std::size_t i = 0; i < size(); i++) {
        NodeId n = i == 0 ? root : members_[i - 1];
        OS_CHECK(n != invalidNode, "DisseminationTree: invalid member");
        index_.emplace_back(n, static_cast<std::uint32_t>(i));
    }
    // Sorted by (id, index), so unique() keeps a repeated id's first
    // index.
    std::sort(index_.begin(), index_.end());
    index_.erase(std::unique(index_.begin(), index_.end(),
                             [](const auto &a, const auto &b) {
                                 return a.first == b.first;
                             }),
                 index_.end());

    // Join closest-to-root first; each joiner picks the closest
    // already-joined node with spare fanout.
    std::vector<NodeId> order = members_;
    std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
        double la = rt_.latency(root, a);
        double lb = rt_.latency(root, b);
        if (la != lb)
            return la < lb;
        return a < b;
    });

    // Record each join as (parent index, child), then lay the
    // children out flat, each node's in join order.
    parent_.assign(size(), invalidNode);
    std::vector<std::uint32_t> childCount(size(), 0);
    std::vector<std::pair<std::uint32_t, NodeId>> edges;
    edges.reserve(order.size());
    std::vector<NodeId> joined{root};
    for (NodeId n : order) {
        NodeId best = invalidNode;
        double best_lat = 0.0;
        for (NodeId cand : joined) {
            if (childCount[slot(cand)] >= fanout)
                continue;
            double l = rt_.latency(cand, n);
            if (best == invalidNode || l < best_lat) {
                best = cand;
                best_lat = l;
            }
        }
        if (best == invalidNode) {
            // Everyone is full: deepen under the most recent joiner.
            best = joined.back();
        }
        const auto parent = static_cast<std::uint32_t>(slot(best));
        parent_[slot(n)] = best;
        childCount[parent]++;
        edges.emplace_back(parent, n);
        joined.push_back(n);
    }
    childStart_.assign(size() + 1, 0);
    for (std::size_t i = 0; i < size(); i++)
        childStart_[i + 1] = childStart_[i] + childCount[i];
    children_.resize(edges.size());
    std::vector<std::uint32_t> next(childStart_.begin(),
                                    childStart_.end() - 1);
    for (const auto &[parent, child] : edges)
        children_[next[parent]++] = child;
}

std::size_t
DisseminationTree::slot(NodeId n) const
{
    auto it = std::lower_bound(
        index_.begin(), index_.end(), n,
        [](const auto &e, NodeId want) { return e.first < want; });
    return it != index_.end() && it->first == n ? it->second : size();
}

bool
DisseminationTree::contains(NodeId n) const
{
    return slot(n) < size();
}

NodeId
DisseminationTree::parentOf(NodeId n) const
{
    std::size_t s = slot(n);
    return s < size() ? parent_[s] : invalidNode;
}

std::span<const NodeId>
DisseminationTree::childrenOf(NodeId n) const
{
    std::size_t s = slot(n);
    if (s >= size())
        return {};
    return std::span<const NodeId>(children_).subspan(
        childStart_[s], childStart_[s + 1] - childStart_[s]);
}

unsigned
DisseminationTree::depth() const
{
    unsigned max_depth = 0;
    for (NodeId n : members_) {
        unsigned d = 0;
        NodeId cur = n;
        while (parent_[slot(cur)] != invalidNode) {
            cur = parent_[slot(cur)];
            d++;
        }
        max_depth = std::max(max_depth, d);
    }
    return max_depth;
}

double
DisseminationTree::maxLatency() const
{
    double worst = 0.0;
    for (NodeId n : members_) {
        double lat = 0.0;
        NodeId cur = n;
        while (parent_[slot(cur)] != invalidNode) {
            lat += rt_.latency(parent_[slot(cur)], cur);
            cur = parent_[slot(cur)];
        }
        worst = std::max(worst, lat);
    }
    return worst;
}

std::uint64_t
DisseminationTree::multicastBytes(std::size_t payload_bytes) const
{
    // One copy per tree edge; every member has exactly one parent
    // edge.
    return static_cast<std::uint64_t>(members_.size()) *
           (payload_bytes + messageHeaderBytes);
}

} // namespace oceanstore
