/** @file Dissemination tree structural tests (Section 4.4.3). */

#include <algorithm>

#include <gtest/gtest.h>

#include "consistency/dissemination.h"
#include "runtime/runtime.h"
#include "util/random.h"

namespace oceanstore {
namespace {

struct Sink : public SimNode
{
    void handleMessage(const Message &) override {}
};

struct TreeFixture
{
    explicit TreeFixture(std::size_t n, unsigned fanout = 3)
        : net(sim, {})
    {
        Rng rng(5);
        sinks.resize(n + 1);
        root = net.addNode(&sinks[0], 0.5, 0.5);
        for (std::size_t i = 0; i < n; i++)
            members.push_back(net.addNode(&sinks[i + 1], rng.uniform(),
                                          rng.uniform()));
        tree = std::make_unique<DisseminationTree>(rt, root, members,
                                                   fanout);
    }

    Simulator sim;
    Network net;
    Runtime rt{sim, net};
    std::vector<Sink> sinks;
    NodeId root{};
    std::vector<NodeId> members;
    std::unique_ptr<DisseminationTree> tree;
};

TEST(DisseminationTree, EveryMemberHasPathToRoot)
{
    TreeFixture fx(30);
    for (NodeId n : fx.members) {
        NodeId cur = n;
        int steps = 0;
        while (fx.tree->parentOf(cur) != invalidNode) {
            cur = fx.tree->parentOf(cur);
            ASSERT_LT(++steps, 100);
        }
        EXPECT_EQ(cur, fx.root);
    }
}

TEST(DisseminationTree, FanoutRespected)
{
    TreeFixture fx(40, 3);
    EXPECT_LE(fx.tree->childrenOf(fx.root).size(), 3u);
    for (NodeId n : fx.members)
        EXPECT_LE(fx.tree->childrenOf(n).size(), 3u);
}

TEST(DisseminationTree, ChildCountsSumToMembers)
{
    TreeFixture fx(25);
    std::size_t total = fx.tree->childrenOf(fx.root).size();
    for (NodeId n : fx.members)
        total += fx.tree->childrenOf(n).size();
    EXPECT_EQ(total, fx.members.size());
}

TEST(DisseminationTree, DepthIsLogarithmicish)
{
    TreeFixture fx(64, 4);
    // 64 members at fanout 4: the latency-greedy construction is not
    // perfectly balanced, but depth must stay far below a 64-chain.
    EXPECT_LE(fx.tree->depth(), 12u);
    EXPECT_GE(fx.tree->depth(), 2u);
}

TEST(DisseminationTree, RootParentIsInvalid)
{
    TreeFixture fx(5);
    EXPECT_EQ(fx.tree->parentOf(fx.root), invalidNode);
}

TEST(DisseminationTree, MulticastBytesOnePerEdge)
{
    TreeFixture fx(20);
    std::uint64_t bytes = fx.tree->multicastBytes(1000);
    EXPECT_EQ(bytes, 20u * (1000 + messageHeaderBytes));
}

TEST(DisseminationTree, MaxLatencyBounded)
{
    TreeFixture fx(32, 4);
    double lat = fx.tree->maxLatency();
    EXPECT_GT(lat, 0.0);
    // Each hop <= base + diag(~1.42) * 0.1 ~ 0.15; depth <= 8.
    EXPECT_LT(lat, 8 * 0.16);
}

TEST(DisseminationTree, LeafDetection)
{
    TreeFixture fx(10, 2);
    unsigned leaves = 0;
    for (NodeId n : fx.members) {
        if (fx.tree->isLeaf(n))
            leaves++;
    }
    EXPECT_GT(leaves, 0u);
    EXPECT_LT(leaves, fx.members.size());
}

TEST(DisseminationTree, SingleMemberAttachesToRoot)
{
    TreeFixture fx(1);
    EXPECT_EQ(fx.tree->parentOf(fx.members[0]), fx.root);
    EXPECT_EQ(fx.tree->depth(), 1u);
}

TEST(DisseminationTree, NonMemberHasNoParentOrChildren)
{
    TreeFixture fx(3);
    EXPECT_EQ(fx.tree->parentOf(9999), invalidNode);
    EXPECT_TRUE(fx.tree->childrenOf(9999).empty());
    EXPECT_FALSE(fx.tree->contains(9999));
    EXPECT_TRUE(fx.tree->contains(fx.root));
}

/**
 * Check every lookup for every NodeId in [0, max + 2] against a
 * linear scan over the tree's edges, collected by walking it from the
 * root.  The walk must reach the root and each member exactly once.
 */
void
expectLookupsMatchLinearScan(const DisseminationTree &tree)
{
    struct Entry
    {
        NodeId node;
        NodeId parent;
        std::vector<NodeId> children;
    };
    std::vector<Entry> ref{{tree.root(), invalidNode, {}}};
    for (std::size_t i = 0; i < ref.size(); i++) {
        ref[i].children = tree.childrenOf(ref[i].node);
        for (NodeId c : ref[i].children)
            ref.push_back({c, ref[i].node, {}});
    }
    ASSERT_EQ(ref.size(), tree.members().size() + 1);

    NodeId max_id = tree.root();
    for (NodeId m : tree.members()) {
        max_id = std::max(max_id, m);
        EXPECT_EQ(std::count_if(ref.begin(), ref.end(),
                                [&](const Entry &e) { return e.node == m; }),
                  1)
            << "member " << m;
    }

    for (NodeId n = 0; n <= max_id + 2; n++) {
        const Entry *e = nullptr;
        for (const Entry &cand : ref) {
            if (cand.node == n) {
                e = &cand;
                break;
            }
        }
        EXPECT_EQ(tree.contains(n), e != nullptr) << "node " << n;
        EXPECT_EQ(tree.parentOf(n), e ? e->parent : invalidNode)
            << "node " << n;
        EXPECT_EQ(tree.childrenOf(n),
                  e ? e->children : std::vector<NodeId>{})
            << "node " << n;
        EXPECT_EQ(tree.isLeaf(n), !e || e->children.empty())
            << "node " << n;
    }
}

TEST(DisseminationTree, LookupsMatchLinearScan)
{
    TreeFixture fx(30, 3);
    expectLookupsMatchLinearScan(*fx.tree);

    // Rebuilt without two down members, one of them the largest id,
    // so lookups past the end of the dense table are covered too.
    std::vector<NodeId> up = fx.members;
    NodeId largest = *std::max_element(up.begin(), up.end());
    std::erase(up, largest);
    NodeId middle = up[up.size() / 2];
    std::erase(up, middle);
    DisseminationTree rebuilt(fx.rt, fx.root, up, 3);
    EXPECT_FALSE(rebuilt.contains(largest));
    EXPECT_FALSE(rebuilt.contains(middle));
    EXPECT_EQ(rebuilt.parentOf(middle), invalidNode);
    expectLookupsMatchLinearScan(rebuilt);
}

} // namespace
} // namespace oceanstore
