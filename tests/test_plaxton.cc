/** @file Plaxton mesh tests (Section 4.3.3, Figure 3). */

#include <algorithm>

#include <gtest/gtest.h>

#include "plaxton/mesh.h"
#include "runtime/runtime.h"
#include "sim/topology.h"

namespace oceanstore {
namespace {

struct MeshFixture : public ::testing::Test
{
    MeshFixture() : net(sim, netCfg())
    {
        Rng rng(0xfeed);
        auto topo = makeGeometricTopology(kNodes, 3, rng);
        std::vector<Sink> dummy;
        nodes.resize(kNodes);
        for (std::size_t i = 0; i < kNodes; i++) {
            members.push_back(net.addNode(&nodes[i],
                                          topo.positions[i].first,
                                          topo.positions[i].second));
        }
        mesh = std::make_unique<PlaxtonMesh>(rt, members, rng);
    }

    static NetworkConfig
    netCfg()
    {
        NetworkConfig cfg;
        cfg.jitter = 0;
        return cfg;
    }

    struct Sink : public SimNode
    {
        void handleMessage(const Message &) override {}
    };

    static constexpr std::size_t kNodes = 64;
    Simulator sim;
    Network net;
    Runtime rt{sim, net};
    std::vector<Sink> nodes;
    std::vector<NodeId> members;
    std::unique_ptr<PlaxtonMesh> mesh;
};

TEST_F(MeshFixture, RouteTerminatesFromEveryNode)
{
    Rng rng(1);
    Guid target = Guid::random(rng);
    for (NodeId n : members) {
        auto r = mesh->route(n, target);
        EXPECT_FALSE(r.failed);
        EXPECT_NE(r.root, invalidNode);
        EXPECT_LE(r.path.size(), Guid::numDigits + 1);
    }
}

TEST_F(MeshFixture, RootIsConsistentAcrossSources)
{
    // The defining property of surrogate routing: every source
    // reaches the same root for a given GUID.
    Rng rng(2);
    for (int trial = 0; trial < 10; trial++) {
        Guid g = Guid::random(rng);
        NodeId root = mesh->route(members[0], g).root;
        for (std::size_t i = 1; i < members.size(); i += 7)
            EXPECT_EQ(mesh->route(members[i], g).root, root);
    }
}

TEST_F(MeshFixture, RouteToOwnGuidStaysPut)
{
    for (NodeId n : members) {
        auto r = mesh->route(n, mesh->guidOf(n));
        EXPECT_EQ(r.root, n);
        EXPECT_EQ(r.path.size(), 1u);
    }
}

TEST_F(MeshFixture, PublishThenLocateSucceeds)
{
    Rng rng(3);
    Guid g = Guid::random(rng);
    NodeId storer = members[10];
    mesh->publish(g, storer);
    for (std::size_t i = 0; i < members.size(); i += 5) {
        auto res = mesh->locate(members[i], g);
        EXPECT_TRUE(res.found) << "from member " << i;
        EXPECT_EQ(res.location, storer);
    }
}

TEST_F(MeshFixture, LocateUnpublishedFails)
{
    Rng rng(4);
    auto res = mesh->locate(members[0], Guid::random(rng));
    EXPECT_FALSE(res.found);
}

TEST_F(MeshFixture, UnpublishRemovesPointers)
{
    Rng rng(5);
    Guid g = Guid::random(rng);
    mesh->publish(g, members[4]);
    ASSERT_TRUE(mesh->locate(members[20], g).found);
    mesh->unpublish(g, members[4]);
    EXPECT_FALSE(mesh->locate(members[20], g).found);
}

TEST_F(MeshFixture, LocateFindsCloseReplicaCheaply)
{
    // Locality: a replica published next door is found in few hops.
    Rng rng(6);
    Guid g = Guid::random(rng);
    NodeId near = members[1];
    mesh->publish(g, near);
    auto res = mesh->locate(near, g);
    ASSERT_TRUE(res.found);
    EXPECT_EQ(res.hops, 0u); // the storer's own pointer is local
}

TEST_F(MeshFixture, MultipleStorersLocateNearest)
{
    Rng rng(7);
    Guid g = Guid::random(rng);
    mesh->publish(g, members[3]);
    mesh->publish(g, members[50]);
    auto res = mesh->locate(members[3], g);
    ASSERT_TRUE(res.found);
    EXPECT_EQ(res.location, members[3]);
}

TEST_F(MeshFixture, SaltedRootsSurviveRootFailure)
{
    Rng rng(8);
    Guid g = Guid::random(rng);
    NodeId storer = members[12];
    mesh->publish(g, storer);

    // Kill the salt-0 root (and its pointers).
    NodeId root0 = mesh->route(storer, g.withSalt(0)).root;
    if (root0 == storer) {
        GTEST_SKIP() << "storer is its own root; salt test vacuous";
    }
    net.setDown(root0);
    mesh->removeNode(root0);

    // Locating still succeeds through a different salted root.
    NodeId query_from = members[30] == root0 ? members[31] : members[30];
    auto res = mesh->locate(query_from, g);
    EXPECT_TRUE(res.found);
}

TEST_F(MeshFixture, RoutingSurvivesScatteredFailures)
{
    Rng rng(9);
    // Kill 10% of nodes (not the storer).
    Guid g = Guid::random(rng);
    NodeId storer = members[0];
    mesh->publish(g, storer);
    for (std::size_t i = 5; i < members.size(); i += 10) {
        net.setDown(members[i]);
        mesh->removeNode(members[i]);
    }
    mesh->repair();
    unsigned found = 0, total = 0;
    for (std::size_t i = 1; i < members.size(); i += 3) {
        if (!mesh->alive(members[i]))
            continue;
        total++;
        if (mesh->locate(members[i], g).found)
            found++;
    }
    EXPECT_EQ(found, total); // post-repair: everything locatable
}

TEST_F(MeshFixture, RepairRestoresPointersAfterRootLoss)
{
    Rng rng(10);
    Guid g = Guid::random(rng);
    NodeId storer = members[22];
    mesh->publish(g, storer);

    // Kill every node on the publish path except the storer.
    auto path = mesh->route(storer, g.withSalt(0)).path;
    for (NodeId n : path) {
        if (n != storer) {
            net.setDown(n);
            mesh->removeNode(n);
        }
    }
    mesh->repair();

    NodeId from = invalidNode;
    for (NodeId n : members) {
        if (mesh->alive(n) && n != storer) {
            from = n;
            break;
        }
    }
    ASSERT_NE(from, invalidNode);
    auto res = mesh->locate(from, g);
    EXPECT_TRUE(res.found);
    EXPECT_EQ(res.location, storer);
}

TEST_F(MeshFixture, InsertNodeJoinsRouting)
{
    Rng rng(11);
    // Register a new network node and insert it into the mesh.
    static Sink extra;
    NodeId fresh = net.addNode(&extra, 0.42, 0.42);
    Guid fresh_id = Guid::random(rng);
    mesh->insertNode(fresh, fresh_id);

    EXPECT_TRUE(mesh->alive(fresh));
    // The new node can route and be routed to.
    auto r = mesh->route(fresh, mesh->guidOf(members[0]));
    EXPECT_FALSE(r.failed);
    auto to_it = mesh->route(members[0], fresh_id);
    EXPECT_EQ(to_it.root, fresh);
}

TEST_F(MeshFixture, InsertedNodeCanPublishAndBeFound)
{
    Rng rng(12);
    static Sink extra;
    NodeId fresh = net.addNode(&extra, 0.1, 0.9);
    mesh->insertNode(fresh, Guid::random(rng));
    Guid g = Guid::random(rng);
    mesh->publish(g, fresh);
    auto res = mesh->locate(members[0], g);
    ASSERT_TRUE(res.found);
    EXPECT_EQ(res.location, fresh);
}

TEST_F(MeshFixture, ObjectsPublishedByTracksStorers)
{
    Rng rng(13);
    Guid g1 = Guid::random(rng), g2 = Guid::random(rng);
    mesh->publish(g1, members[2]);
    mesh->publish(g2, members[2]);
    auto objs = mesh->objectsPublishedBy(members[2]);
    EXPECT_EQ(objs.size(), 2u);
    EXPECT_TRUE(mesh->objectsPublishedBy(members[3]).empty());
}

TEST_F(MeshFixture, PublishHopsAreLogarithmic)
{
    Rng rng(14);
    Guid g = Guid::random(rng);
    unsigned hops = mesh->publish(g, members[7]);
    // 3 salts x at most a few digits of routing for 64 nodes.
    EXPECT_LE(hops, 3u * 8u);
}


TEST_F(MeshFixture, BeaconSecondChanceSparesTransientBlips)
{
    Rng rng(20);
    Guid g = Guid::random(rng);
    NodeId storer = members[8];
    mesh->publish(g, storer);

    // A pointer-carrying node blips offline for one beacon period.
    NodeId blip = mesh->route(storer, g.withSalt(0)).path[0] == storer
                      ? members[9]
                      : members[9];
    net.setDown(blip);
    auto r1 = mesh->beaconSweep();
    EXPECT_EQ(r1.suspects, 1u);
    EXPECT_EQ(r1.evicted, 0u);
    EXPECT_TRUE(mesh->isSuspect(blip));
    EXPECT_FALSE(mesh->alive(blip)); // routed around while suspect

    // It answers the next beacon: reinstated with full state, no
    // costly removal/rejoin.
    net.setUp(blip);
    auto r2 = mesh->beaconSweep();
    EXPECT_EQ(r2.reinstated, 1u);
    EXPECT_FALSE(mesh->isSuspect(blip));
    EXPECT_TRUE(mesh->alive(blip));
    EXPECT_TRUE(mesh->locate(members[30], g).found);
}

TEST_F(MeshFixture, BeaconEvictsAfterTwoMisses)
{
    NodeId victim = members[5];
    net.setDown(victim);
    auto r1 = mesh->beaconSweep();
    EXPECT_EQ(r1.suspects, 1u);
    auto r2 = mesh->beaconSweep();
    EXPECT_EQ(r2.evicted, 1u);
    EXPECT_FALSE(mesh->isSuspect(victim));
    EXPECT_FALSE(mesh->alive(victim));
    // Even after the machine reboots, an evicted node must rejoin
    // explicitly (insertNode); the mesh no longer counts it.
    net.setUp(victim);
    EXPECT_FALSE(mesh->alive(victim));
}

TEST_F(MeshFixture, BeaconQuietWhenAllHealthy)
{
    auto r = mesh->beaconSweep();
    EXPECT_EQ(r.suspects, 0u);
    EXPECT_EQ(r.evicted, 0u);
    EXPECT_EQ(r.reinstated, 0u);
}

} // namespace
} // namespace oceanstore
