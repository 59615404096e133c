/** @file Plaxton mesh tests (Section 4.3.3, Figure 3). */

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "plaxton/mesh.h"
#include "plaxton/pointer_table.h"
#include "runtime/runtime.h"
#include "sim/topology.h"
#include "storage/node_storage.h"

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

/** FNV-1a over everything a mesh result exposes, so one 64-bit value
 *  pins routes, locates and durable pointers bit for bit. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    byte(std::uint8_t b)
    {
        h ^= b;
        h *= 0x100000001b3ull;
    }

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; i++)
            byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void add(double d) { add(std::bit_cast<std::uint64_t>(d)); }

    void
    add(const Guid &g)
    {
        for (std::uint8_t b : g.bytes())
            byte(b);
    }

    void
    add(const std::string &s)
    {
        add(static_cast<std::uint64_t>(s.size()));
        for (char c : s)
            byte(static_cast<std::uint8_t>(c));
    }

    void
    add(const std::vector<NodeId> &path)
    {
        add(static_cast<std::uint64_t>(path.size()));
        for (NodeId n : path)
            add(static_cast<std::uint64_t>(n));
    }
};

TEST(PlaxtonMesh, ResultsMatchPinnedDigest)
{
    // A seeded 128-node mesh with durable pointers goes through
    // publish, unpublish, crash, repair and restore; every observable
    // result is folded into one hash.  The value was computed before
    // the location stores were rewritten, so any change to a path, a
    // pick among storers, a hop count, a latency or a persisted
    // pointer key shows here.
    constexpr std::size_t kNodes = 128;
    struct Sink : public SimNode
    {
        void handleMessage(const Message &) override {}
    };
    NetworkConfig ncfg;
    ncfg.jitter = 0;
    Simulator sim;
    Network net(sim, ncfg);
    Runtime rt(sim, net);
    std::vector<Sink> sinks(kNodes);
    std::vector<NodeId> members;
    Rng rng(0xd16e57);
    auto topo = makeGeometricTopology(kNodes, 3, rng);
    for (std::size_t i = 0; i < kNodes; i++) {
        members.push_back(net.addNode(&sinks[i], topo.positions[i].first,
                                      topo.positions[i].second));
    }
    PlaxtonConfig cfg;
    cfg.numSalts = 3;
    PlaxtonMesh mesh(rt, members, rng, cfg);
    std::vector<std::unique_ptr<NodeStorage>> disks;
    for (NodeId n : members) {
        disks.push_back(std::make_unique<NodeStorage>(StorageSetup{}));
        mesh.attachStorage(n, disks.back().get());
    }

    Digest d;
    std::vector<Guid> objs;
    std::vector<std::vector<NodeId>> storers;
    for (int i = 0; i < 400; i++) {
        objs.push_back(Guid::random(rng));
        storers.emplace_back();
        unsigned k = 1 + static_cast<unsigned>(rng.next() % 4);
        while (storers.back().size() < k) {
            NodeId s = members[rng.next() % kNodes];
            if (std::find(storers.back().begin(), storers.back().end(),
                          s) == storers.back().end())
                storers.back().push_back(s);
        }
        for (NodeId s : storers.back())
            d.add(static_cast<std::uint64_t>(mesh.publish(objs[i], s)));
    }

    auto unpublishSome = [&](unsigned every, unsigned offset) {
        for (std::size_t i = offset; i < objs.size(); i += every) {
            NodeId s = storers[i].back();
            mesh.unpublish(objs[i], s);
            if (storers[i].size() > 1)
                storers[i].pop_back();
        }
    };
    auto observe = [&]() {
        std::vector<Guid> targets;
        Rng trng(0x7a29e7);
        for (int i = 0; i < 16; i++)
            targets.push_back(Guid::random(trng));
        for (NodeId from : members) {
            for (const Guid &t : targets) {
                RouteResult r = mesh.route(from, t);
                d.add(r.path);
                d.add(static_cast<std::uint64_t>(r.root));
                d.add(r.latency);
                d.add(static_cast<std::uint64_t>(r.failed));
            }
        }
        for (std::size_t i = 0; i < objs.size(); i++) {
            for (std::size_t j = 0; j < 6; j++) {
                NodeId from = members[(i * 7 + j * 23) % kNodes];
                LocateResult r = mesh.locate(from, objs[i]);
                d.add(static_cast<std::uint64_t>(r.found));
                d.add(static_cast<std::uint64_t>(r.location));
                d.add(static_cast<std::uint64_t>(r.hops));
                d.add(r.latency);
                d.add(static_cast<std::uint64_t>(r.saltUsed));
            }
        }
        for (std::size_t i = 0; i < kNodes; i++) {
            for (const Guid &g : mesh.objectsPublishedBy(members[i]))
                d.add(g);
            d.add(static_cast<std::uint64_t>(members[i]));
            if (LogStore *store = runningStore(disks[i].get())) {
                store->scanKeys("ptr/", [&](const std::string &key) {
                    d.add(key);
                });
            }
        }
    };

    unpublishSome(5, 0);
    observe();

    std::vector<std::size_t> crashed;
    while (crashed.size() < 8) {
        std::size_t i = rng.next() % kNodes;
        if (std::find(crashed.begin(), crashed.end(), i) == crashed.end())
            crashed.push_back(i);
    }
    for (std::size_t i : crashed) {
        disks[i]->crash();
        net.setDown(members[i]);
        mesh.removeNode(members[i]);
    }
    observe();
    // Unpublished while pointer holders are down: their durable
    // records come back stale on restore.
    unpublishSome(7, 3);
    mesh.repair();
    observe();

    for (std::size_t i : crashed) {
        disks[i]->restart();
        net.setUp(members[i]);
        d.add(static_cast<std::uint64_t>(mesh.restoreNode(members[i])));
    }
    observe();
    mesh.repair();
    observe();

    EXPECT_EQ(d.h, 0x6b5a7b60f7e2f0a2ull);
}

TEST(PointerTable, MatchesOrderedReference)
{
    // Random deposits and removals against std::map/std::set.  Half
    // the GUIDs share their first 8 bytes, so they share a home slot
    // and exercise probe clusters and backward-shift erase; up to 12
    // storers per GUID exercise heap runs growing and going back
    // inline.
    Rng rng(0x7ab1e);
    std::vector<Guid> keys;
    for (int i = 0; i < 40; i++) {
        std::string hex = i % 2 ? "00000000deadbeef" : "";
        while (hex.size() < Guid::numDigits)
            hex.push_back("0123456789abcdef"[rng.next() % 16]);
        keys.push_back(*Guid::fromHex(hex));
    }
    PointerTable table;
    std::map<Guid, std::set<NodeId>> ref;
    auto check = [&]() {
        ASSERT_EQ(table.size(), ref.size());
        for (const Guid &g : keys) {
            auto run = table.storers(g);
            auto it = ref.find(g);
            std::vector<NodeId> want;
            if (it != ref.end())
                want.assign(it->second.begin(), it->second.end());
            ASSERT_EQ(std::vector<NodeId>(run.begin(), run.end()), want);
        }
        std::vector<std::pair<Guid, NodeId>> all;
        for (const auto &[g, storers] : ref) {
            for (NodeId s : storers)
                all.emplace_back(g, s);
        }
        EXPECT_EQ(table.collect([](const Guid &, NodeId) { return true; }),
                  all);
    };
    for (int round = 0; round < 3; round++) {
        for (int op = 0; op < 4000; op++) {
            const Guid &g = keys[rng.next() % keys.size()];
            auto s = static_cast<NodeId>(rng.next() % 12);
            if (rng.next() % 3 != 0) {
                EXPECT_EQ(table.insert(g, s), ref[g].insert(s).second);
            } else {
                auto it = ref.find(g);
                bool had = it != ref.end() && it->second.erase(s) > 0;
                if (it != ref.end() && it->second.empty())
                    ref.erase(it);
                EXPECT_EQ(table.erase(g, s), had);
            }
            if (op % 200 == 0)
                check();
        }
        check();
        PointerTable moved(std::move(table));
        table = std::move(moved);
        check();
        if (round == 1) {
            table.clear();
            ref.clear();
            check();
        }
    }
}

} // namespace
} // namespace oceanstore
