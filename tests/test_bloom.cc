/** @file Bloom filter and probabilistic location tests (Sec 4.3.2). */

#include <algorithm>
#include <cstdint>

#include <gtest/gtest.h>

#include "bloom/location_service.h"
#include "plaxton/mesh.h"
#include "runtime/runtime.h"
#include "sim/network.h"

namespace oceanstore {
namespace {

TEST(BloomFilter, NoFalseNegatives)
{
    BloomFilter f(2048, 4);
    Rng rng(1);
    std::vector<Guid> inserted;
    for (int i = 0; i < 100; i++) {
        inserted.push_back(Guid::random(rng));
        f.insert(inserted.back());
    }
    for (const auto &g : inserted)
        EXPECT_TRUE(f.mayContain(g));
}

TEST(BloomFilter, LowFalsePositiveRateWhenSized)
{
    BloomFilter f(4096, 4);
    Rng rng(2);
    for (int i = 0; i < 100; i++)
        f.insert(Guid::random(rng));
    int fp = 0;
    for (int i = 0; i < 2000; i++)
        fp += f.mayContain(Guid::random(rng)) ? 1 : 0;
    EXPECT_LT(fp, 40); // << 2% at this load
}

TEST(BloomFilter, MergeIsUnion)
{
    BloomFilter a(1024, 3), b(1024, 3);
    Rng rng(3);
    Guid ga = Guid::random(rng), gb = Guid::random(rng);
    a.insert(ga);
    b.insert(gb);
    a.merge(b);
    EXPECT_TRUE(a.mayContain(ga));
    EXPECT_TRUE(a.mayContain(gb));
}

TEST(BloomFilter, MergeGeometryMismatchFatal)
{
    BloomFilter a(1024, 3), b(2048, 3);
    EXPECT_THROW(a.merge(b), std::runtime_error);
}

TEST(BloomFilter, ClearEmpties)
{
    BloomFilter f(512, 3);
    Rng rng(4);
    f.insert(Guid::random(rng));
    EXPECT_GT(f.popCount(), 0u);
    f.clear();
    EXPECT_EQ(f.popCount(), 0u);
}

TEST(BloomFilter, FillRatioGrows)
{
    BloomFilter f(1024, 4);
    Rng rng(5);
    double prev = f.fillRatio();
    for (int round = 0; round < 3; round++) {
        for (int i = 0; i < 30; i++)
            f.insert(Guid::random(rng));
        EXPECT_GT(f.fillRatio(), prev);
        prev = f.fillRatio();
    }
}

TEST(Attenuated, MinDistanceFindsFirstLevel)
{
    AttenuatedBloomFilter abf(3, 1024, 3);
    Rng rng(6);
    Guid g = Guid::random(rng);
    EXPECT_EQ(abf.minDistance(g), 0u); // absent
    abf.level(1).insert(g);
    EXPECT_EQ(abf.minDistance(g), 2u); // level index 1 = distance 2
    abf.level(0).insert(g);
    EXPECT_EQ(abf.minDistance(g), 1u);
}

TEST(Attenuated, WireSizeSumsLevels)
{
    AttenuatedBloomFilter abf(4, 1024, 3);
    EXPECT_EQ(abf.wireSize(), 4 * (1024 / 8));
}


/** A small random topology for property tests. */
Topology
makeGeometricTopologyForTest(Rng &rng)
{
    return makeGeometricTopology(24, 3, rng);
}

/** A line topology 0-1-2-3-4 for predictable routing. */
Topology
lineTopology(std::size_t n)
{
    Topology topo;
    topo.positions.resize(n);
    topo.adjacency.resize(n);
    for (NodeId i = 0; i < n; i++) {
        topo.positions[i] = {static_cast<double>(i) / n, 0.5};
        if (i > 0)
            topo.addEdge(i - 1, i);
    }
    return topo;
}

TEST(BloomLocation, FindsLocalObjectImmediately)
{
    auto topo = lineTopology(5);
    BloomLocationService svc(topo);
    Rng rng(7);
    Guid g = Guid::random(rng);
    svc.addObject(2, g);
    auto res = svc.query(2, g);
    EXPECT_TRUE(res.found);
    EXPECT_EQ(res.location, 2u);
    EXPECT_EQ(res.hops, 0u);
    EXPECT_FALSE(res.fellBack);
}

TEST(BloomLocation, RoutesToObjectWithinDepth)
{
    auto topo = lineTopology(6);
    BloomLocationConfig cfg;
    cfg.depth = 3;
    BloomLocationService svc(topo, cfg);
    Rng rng(8);
    Guid g = Guid::random(rng);
    svc.addObject(3, g); // distance 3 from node 0
    auto res = svc.query(0, g);
    EXPECT_TRUE(res.found);
    EXPECT_EQ(res.location, 3u);
    EXPECT_EQ(res.hops, 3u);
    EXPECT_EQ(res.path, (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(BloomLocation, FallsBackBeyondHorizon)
{
    auto topo = lineTopology(10);
    BloomLocationConfig cfg;
    cfg.depth = 2; // horizon of 2 hops
    BloomLocationService svc(topo, cfg);
    Rng rng(9);
    Guid g = Guid::random(rng);
    svc.addObject(9, g); // far beyond the horizon of node 0
    auto res = svc.query(0, g);
    EXPECT_FALSE(res.found);
    EXPECT_TRUE(res.fellBack);
}

TEST(BloomLocation, RemoveObjectStopsQueries)
{
    auto topo = lineTopology(4);
    BloomLocationService svc(topo);
    Rng rng(10);
    Guid g = Guid::random(rng);
    svc.addObject(1, g);
    EXPECT_TRUE(svc.query(0, g).found);
    svc.removeObject(1, g);
    EXPECT_FALSE(svc.query(0, g).found);
    EXPECT_FALSE(svc.hasObject(1, g));
}

TEST(BloomLocation, PenaltyRoutesAround)
{
    // Diamond: 0-1-3 and 0-2-3; object at 3 via either path.
    Topology topo;
    topo.positions = {{0, 0.5}, {0.5, 0.9}, {0.5, 0.1}, {1, 0.5}};
    topo.adjacency.resize(4);
    topo.addEdge(0, 1);
    topo.addEdge(0, 2);
    topo.addEdge(1, 3);
    topo.addEdge(2, 3);
    BloomLocationService svc(topo);
    Rng rng(11);
    Guid g = Guid::random(rng);
    svc.addObject(3, g);

    auto before = svc.query(0, g);
    ASSERT_TRUE(before.found);
    NodeId first_hop = before.path[1];

    // Penalize that edge heavily; the query should take the other arm.
    svc.penalize(0, first_hop, 10);
    auto after = svc.query(0, g);
    ASSERT_TRUE(after.found);
    EXPECT_NE(after.path[1], first_hop);
}

TEST(BloomLocation, LossyLinksDegradeToMeshRoutingNotHardFailure)
{
    // Section 3.1's two-tier lookup under lossy links: when every
    // path advertised by the attenuated filters runs over links the
    // reliability factor has downgraded (the paper's mechanism for
    // routing around lossy or abusive neighbors), the probabilistic
    // query must *fall back* — fellBack, never a silent hard miss —
    // and the deterministic global tier must still locate the object.
    auto topo = lineTopology(8);
    BloomLocationConfig cfg;
    cfg.depth = 3;
    BloomLocationService svc(topo, cfg);
    Rng rng(21);
    Guid g = Guid::hashOf("lossy-two-tier-object");
    svc.addObject(3, g);

    // Healthy filters: tier 1 finds the replica on its own.
    auto healthy = svc.query(0, g);
    ASSERT_TRUE(healthy.found);
    EXPECT_FALSE(healthy.fellBack);

    // Every edge along the only path is now heavily penalized: the
    // apparent distance exceeds the attenuation horizon everywhere,
    // so hill-climbing has nowhere credible to go.
    for (NodeId n = 0; n < 7; n++) {
        svc.penalize(n, n + 1, 100);
        svc.penalize(n + 1, n, 100);
    }
    auto degraded = svc.query(0, g);
    EXPECT_FALSE(degraded.found);
    EXPECT_TRUE(degraded.fellBack) << "must hand off, not hard-fail";

    // Tier 2: the same object is locatable through the global mesh,
    // which does not depend on the poisoned filters.
    Simulator sim;
    Network net(sim, {});
    struct NullSink : SimNode
    {
        void handleMessage(const Message &) override {}
    };
    std::vector<NullSink> nodes(8);
    std::vector<NodeId> members;
    for (std::size_t i = 0; i < nodes.size(); i++) {
        members.push_back(net.addNode(&nodes[i],
                                      topo.positions[i].first,
                                      topo.positions[i].second));
    }
    Runtime rt(sim, net);
    PlaxtonMesh mesh(rt, members, rng);
    mesh.publish(g, members[3]);
    auto lr = mesh.locate(members[0], g);
    ASSERT_TRUE(lr.found);
    EXPECT_EQ(lr.location, members[3]);
}

TEST(BloomLocation, GossipBytesAccumulate)
{
    auto topo = lineTopology(4);
    BloomLocationService svc(topo);
    Rng rng(12);
    svc.addObject(0, Guid::random(rng));
    svc.query(1, Guid::random(rng)); // forces rebuild
    EXPECT_GT(svc.gossipBytes(), 0u);
}

TEST(BloomLocation, StoragePerNodeConstantInObjects)
{
    auto topo = lineTopology(4);
    BloomLocationService svc(topo);
    Rng rng(13);
    std::size_t before = svc.storagePerNode(1);
    for (int i = 0; i < 50; i++)
        svc.addObject(1, Guid::random(rng));
    svc.rebuildFilters();
    EXPECT_EQ(svc.storagePerNode(1), before);
}

TEST(BloomLocation, MultipleReplicasFindNearest)
{
    auto topo = lineTopology(9);
    BloomLocationConfig cfg;
    cfg.depth = 4;
    BloomLocationService svc(topo, cfg);
    Rng rng(14);
    Guid g = Guid::random(rng);
    svc.addObject(1, g);
    svc.addObject(7, g);
    auto res = svc.query(2, g);
    ASSERT_TRUE(res.found);
    EXPECT_EQ(res.location, 1u); // distance 1, not 5
}


TEST(BloomLocation, IncrementalInsertMatchesFullRebuild)
{
    // Property: the incremental (edge, depth) propagation sets exactly
    // the bits a full rebuild computes, on an arbitrary topology.
    Rng rng(99);
    auto topo = [&] {
        Rng trng(4242);
        return makeGeometricTopologyForTest(trng);
    }();

    BloomLocationConfig cfg;
    cfg.depth = 4;
    cfg.bits = 1024;
    BloomLocationService incremental(topo, cfg);
    BloomLocationService rebuilt(topo, cfg);

    // Force both clean so the incremental path is exercised.
    incremental.rebuildFilters();
    rebuilt.rebuildFilters();

    std::vector<std::pair<NodeId, Guid>> placements;
    for (int i = 0; i < 40; i++) {
        placements.emplace_back(
            static_cast<NodeId>(rng.below(topo.size())),
            Guid::random(rng));
    }
    for (const auto &[node, g] : placements) {
        incremental.addObject(node, g); // propagates incrementally
        rebuilt.addObject(node, g);
    }
    rebuilt.rebuildFilters(); // full recomputation from local sets

    for (NodeId a = 0; a < topo.size(); a++) {
        for (NodeId b : topo.adjacency[a]) {
            const auto &fi = incremental.edgeFilter(a, b);
            const auto &fr = rebuilt.edgeFilter(a, b);
            for (unsigned lvl = 0; lvl < cfg.depth; lvl++) {
                EXPECT_TRUE(fi.level(lvl) == fr.level(lvl))
                    << "edge " << a << "->" << b << " level " << lvl;
            }
        }
    }

    // And queries agree.
    for (const auto &[node, g] : placements) {
        NodeId from = static_cast<NodeId>(rng.below(topo.size()));
        auto qi = incremental.query(from, g);
        auto qr = rebuilt.query(from, g);
        EXPECT_EQ(qi.found, qr.found);
        if (qi.found) {
            EXPECT_EQ(qi.location, qr.location);
            EXPECT_EQ(qi.hops, qr.hops);
        }
    }
}

TEST(BloomLocation, IncrementalInsertIsImmediatelyQueryable)
{
    auto topo = lineTopology(6);
    BloomLocationConfig cfg;
    cfg.depth = 4;
    BloomLocationService svc(topo, cfg);
    svc.rebuildFilters();
    std::uint64_t gossip_before = svc.gossipBytes();

    Rng rng(123);
    Guid g = Guid::random(rng);
    svc.addObject(2, g);
    auto res = svc.query(5, g); // no rebuild should be needed
    EXPECT_TRUE(res.found);
    EXPECT_EQ(res.location, 2u);
    // The incremental path shipped small deltas, not whole filters.
    std::uint64_t delta = svc.gossipBytes() - gossip_before;
    EXPECT_GT(delta, 0u);
    EXPECT_LT(delta, svc.storagePerNode(2));
}

TEST(BloomLocation, ResultsMatchPinnedDigest)
{
    // Queries from every node of a 64-node overlay for 200 GUIDs,
    // through incremental inserts, removals (a full rebuild) and a
    // penalty; every result is folded into one FNV-1a hash.  The
    // value was computed before the local sets were rewritten.
    Rng rng(0xb100d);
    auto topo = makeGeometricTopology(64, 3, rng);
    BloomLocationService svc(topo);
    std::vector<Guid> objs;
    std::vector<NodeId> holders;
    for (int i = 0; i < 200; i++) {
        objs.push_back(Guid::random(rng));
        unsigned k = 1 + static_cast<unsigned>(rng.next() % 3);
        for (unsigned j = 0; j < k; j++) {
            NodeId n = static_cast<NodeId>(rng.next() % topo.size());
            svc.addObject(n, objs.back());
            holders.push_back(n);
        }
    }

    std::uint64_t h = 0xcbf29ce484222325ull;
    auto add = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; i++) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    auto observe = [&]() {
        for (NodeId from = 0; from < topo.size(); from++) {
            for (const Guid &g : objs) {
                BloomQueryResult r = svc.query(from, g);
                add(r.found);
                add(r.location);
                add(r.hops);
                add(r.fellBack);
                add(r.path.size());
                for (NodeId n : r.path)
                    add(n);
            }
        }
    };

    observe();
    // Inserts into current filters take the incremental path.
    for (int i = 0; i < 40; i++) {
        NodeId n = static_cast<NodeId>(rng.next() % topo.size());
        svc.addObject(n, objs[rng.next() % objs.size()]);
    }
    observe();
    // Removals force a full rebuild from the local sets.
    std::size_t h_idx = 0;
    for (std::size_t i = 0; i < objs.size(); i += 3) {
        svc.removeObject(holders[h_idx % holders.size()], objs[i]);
        h_idx += 5;
    }
    svc.penalize(0, topo.adjacency[0].front(), 2);
    observe();

    EXPECT_EQ(h, 0xd27ed6831f700e76ull);
}

} // namespace
} // namespace oceanstore
