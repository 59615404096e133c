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
    all_.push_back(root);
    all_.insert(all_.end(), members.begin(), members.end());
    parent_.assign(all_.size(), invalidNode);
    children_.resize(all_.size());
    const auto none = static_cast<std::uint32_t>(all_.size());
    for (std::size_t i = 0; i < all_.size(); i++) {
        NodeId n = all_[i];
        OS_CHECK(n != invalidNode, "DisseminationTree: invalid member");
        if (n >= slotOf_.size())
            slotOf_.resize(std::size_t{n} + 1, none);
        if (slotOf_[n] == none) // a repeated id keeps its first slot
            slotOf_[n] = static_cast<std::uint32_t>(i);
    }

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

    std::vector<NodeId> joined{root};
    for (NodeId n : order) {
        NodeId best = invalidNode;
        double best_lat = 0.0;
        for (NodeId cand : joined) {
            if (children_[slot(cand)].size() >= fanout)
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
        parent_[slot(n)] = best;
        children_[slot(best)].push_back(n);
        joined.push_back(n);
    }
}

std::size_t
DisseminationTree::slot(NodeId n) const
{
    return n < slotOf_.size() ? slotOf_[n] : all_.size();
}

bool
DisseminationTree::contains(NodeId n) const
{
    return slot(n) < all_.size();
}

NodeId
DisseminationTree::parentOf(NodeId n) const
{
    std::size_t s = slot(n);
    return s < all_.size() ? parent_[s] : invalidNode;
}

const std::vector<NodeId> &
DisseminationTree::childrenOf(NodeId n) const
{
    static const std::vector<NodeId> empty;
    std::size_t s = slot(n);
    return s < all_.size() ? children_[s] : empty;
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
