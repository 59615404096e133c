/** @file Failure/churn integration tests: self-maintenance (Sec 4.3.3,
 *  4.5, 4.7). */

#include <algorithm>

#include <gtest/gtest.h>

#include "archive/archival.h"
#include "consistency/secondary.h"
#include "erasure/reed_solomon.h"
#include "plaxton/mesh.h"
#include "runtime/sim_runtime.h"
#include "sim/churn.h"
#include "sim/topology.h"

namespace oceanstore {
namespace {

struct Sink : public SimNode
{
    void handleMessage(const Message &) override {}
};

TEST(Churn, InjectorAlternatesUpDown)
{
    Simulator sim;
    Network net(sim, {});
    Sink sinks[4];
    std::vector<NodeId> nodes;
    for (auto &s : sinks)
        nodes.push_back(net.addNode(&s, 0.5, 0.5));

    ChurnConfig cfg;
    cfg.meanUptime = 10.0;
    cfg.meanDowntime = 5.0;
    ChurnInjector churn(sim, net, cfg);
    unsigned crashes = 0, recoveries = 0;
    churn.onCrash = [&](NodeId) { crashes++; };
    churn.onRecover = [&](NodeId) { recoveries++; };
    churn.start(nodes);
    sim.runUntil(200.0);
    churn.stop();

    EXPECT_GT(crashes, 10u);
    EXPECT_GT(recoveries, 10u);
    // Transitions alternate per node, so counts are near-balanced.
    EXPECT_NEAR(static_cast<double>(crashes),
                static_cast<double>(recoveries), crashes * 0.5);
}

TEST(Churn, MassFailureDownsRequestedFraction)
{
    Simulator sim;
    Network net(sim, {});
    std::vector<Sink> sinks(40);
    std::vector<NodeId> nodes;
    for (auto &s : sinks)
        nodes.push_back(net.addNode(&s, 0.5, 0.5));
    Rng rng(1);
    auto downed = ChurnInjector::massFailure(net, nodes, 0.25, rng);
    EXPECT_EQ(downed.size(), 10u);
    unsigned down_count = 0;
    for (NodeId n : nodes)
        down_count += net.isUp(n) ? 0 : 1;
    EXPECT_EQ(down_count, 10u);
}

TEST(Churn, MassFailureAndMassRecoverFireSymmetricCallbacks)
{
    // Mass-failure events must feed the same crash/recover callbacks
    // as ordinary churn transitions, so failure detectors and repair
    // sweeps observe storms exactly like per-node churn: one onCrash
    // per downed node, and a symmetric onRecover for each on the way
    // back up.
    Simulator sim;
    Network net(sim, {});
    std::vector<Sink> sinks(40);
    std::vector<NodeId> nodes;
    for (auto &s : sinks)
        nodes.push_back(net.addNode(&s, 0.5, 0.5));

    ChurnConfig cfg;
    cfg.seed = 17;
    ChurnInjector churn(sim, net, cfg);
    std::vector<NodeId> crashed, recovered;
    churn.onCrash = [&](NodeId n) { crashed.push_back(n); };
    churn.onRecover = [&](NodeId n) { recovered.push_back(n); };

    auto downed = churn.massFailure(nodes, 0.25);
    EXPECT_EQ(downed.size(), 10u);
    EXPECT_EQ(crashed, downed); // one callback per victim, in order

    // Recovery is symmetric: every victim (and only the victims)
    // comes back, each firing onRecover exactly once.
    auto back = churn.massRecover(nodes);
    EXPECT_EQ(back.size(), downed.size());
    EXPECT_EQ(recovered, back);
    std::vector<NodeId> a = downed, b = back;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
    for (NodeId n : nodes)
        EXPECT_TRUE(net.isUp(n));

    // A second recover pass is a no-op: nothing is down, so no
    // callback fires twice.
    EXPECT_TRUE(churn.massRecover(nodes).empty());
    EXPECT_EQ(recovered.size(), downed.size());
}

TEST(Churn, MeshStaysUsableUnderChurnWithPeriodicRepair)
{
    // "The OceanStore infrastructure as a whole automatically adapts
    // to the presence or absence of particular servers without human
    // intervention."  Continuous churn (nodes crash and recover), a
    // repair sweep every epoch: published objects stay locatable from
    // alive nodes.
    Simulator sim;
    NetworkConfig ncfg;
    ncfg.jitter = 0;
    Network net(sim, ncfg);
    Rng rng(0xc4u);
    auto topo = makeGeometricTopology(96, 3, rng);
    std::vector<Sink> sinks(96);
    std::vector<NodeId> members;
    for (std::size_t i = 0; i < sinks.size(); i++)
        members.push_back(net.addNode(&sinks[i],
                                      topo.positions[i].first,
                                      topo.positions[i].second));
    SimRuntime rt(sim, net);
    PlaxtonMesh mesh(rt, members, rng);

    // Publish 20 objects from storers that never churn (0..19).
    std::vector<Guid> objs;
    for (int i = 0; i < 20; i++) {
        Guid g = Guid::random(rng);
        mesh.publish(g, members[i]);
        objs.push_back(g);
    }

    // Churn only the other 76 nodes.
    std::vector<NodeId> churners(members.begin() + 20, members.end());
    ChurnConfig ccfg;
    ccfg.meanUptime = 30.0;
    ccfg.meanDowntime = 10.0;
    ChurnInjector churn(sim, net, ccfg);
    churn.start(churners);

    double located = 0, attempts = 0;
    for (int epoch = 0; epoch < 10; epoch++) {
        sim.runUntil(sim.now() + 20.0);
        mesh.repair();
        for (const Guid &g : objs) {
            NodeId from = members[rng.below(20)]; // stable querier
            attempts++;
            if (mesh.locate(from, g).found)
                located++;
        }
    }
    churn.stop();
    EXPECT_GT(located / attempts, 0.98);
}

TEST(Churn, ArchiveRepairKeepsDataAliveAcrossWaves)
{
    // Repeated failure waves, each followed by a repair sweep: data
    // survives cumulative failures far beyond what a single wave of
    // the same total size would allow.
    Simulator sim;
    Network net(sim, {});
    Rng rng(0xa5);
    std::vector<std::pair<double, double>> pos;
    std::vector<unsigned> domains;
    for (int i = 0; i < 64; i++) {
        pos.emplace_back(rng.uniform(), rng.uniform());
        domains.push_back(i % 4);
    }
    ArchiveConfig acfg;
    acfg.repairThreshold = 16; // repair on any fragment loss
    SimRuntime rt(sim, net);
    ArchivalSystem sys(rt, pos, domains, acfg);
    std::vector<std::unique_ptr<NodeStorage>> disks;
    for (std::size_t i = 0; i < sys.size(); i++) {
        disks.push_back(std::make_unique<NodeStorage>(StorageSetup{}));
        sys.server(i).attachStorage(disks.back().get());
    }
    auto client = sys.makeClient(0.5, 0.5);

    ReedSolomonCode codec(8, 16);
    Bytes data(4096);
    for (auto &x : data)
        x = static_cast<std::uint8_t>(rng.next());
    Guid archive = sys.disperse(codec, data, 0);
    sim.runUntil(10.0);

    std::vector<NodeId> servers;
    for (std::size_t i = 0; i < sys.size(); i++)
        servers.push_back(sys.server(i).nodeId());

    // Five waves, each killing 15% of all servers (some already dead)
    // then repairing and recovering the dead for the next round.
    for (int wave = 0; wave < 5; wave++) {
        auto downed = ChurnInjector::massFailure(net, servers, 0.15,
                                                 rng);
        unsigned alive = sys.survivingFragments(archive);
        ASSERT_GE(alive, 8u) << "wave " << wave;
        sys.repairSweep();
        EXPECT_EQ(sys.survivingFragments(archive), 16u)
            << "wave " << wave;
        for (NodeId n : downed)
            net.setUp(n); // machines come back empty of our fragments
    }

    std::optional<ReconstructResult> res;
    sys.reconstruct(*client, archive,
                    [&](const ReconstructResult &r) { res = r; });
    sim.runUntil(sim.now() + 60.0);
    ASSERT_TRUE(res.has_value());
    EXPECT_TRUE(res->success);
    EXPECT_EQ(res->data, data);
}

TEST(Churn, DisseminationTreeRebuildRoutesAroundDeadInterior)
{
    Simulator sim;
    NetworkConfig ncfg;
    ncfg.jitter = 0.01;
    Network net(sim, ncfg);
    Rng rng(0x7ee);
    std::vector<std::pair<double, double>> pos;
    for (int i = 0; i < 32; i++)
        pos.emplace_back(rng.uniform(), rng.uniform());
    SecondaryConfig scfg;
    scfg.treeFanout = 2; // deep tree: interior failures matter
    SimRuntime rt(sim, net);
    SecondaryTier tier(rt, pos, scfg);

    Guid obj = Guid::hashOf("o");
    auto mk = [&](VersionNum v) {
        Update u;
        u.objectGuid = obj;
        UpdateClause clause;
        clause.actions.push_back(AppendBlock{toBytes("v")});
        u.clauses.push_back(clause);
        u.timestamp = {v, 1};
        return u;
    };

    // Kill an interior node (a direct child of the root).
    NodeId interior = tier.tree().childrenOf(
        tier.replica(0).nodeId())[0];
    net.setDown(interior);

    tier.injectCommitted(mk(1), 1);
    sim.runUntil(30.0);
    // The dead child's subtree missed the push.
    unsigned missing = 0;
    for (std::size_t i = 0; i < tier.size(); i++)
        missing += tier.replica(i).committedVersion(obj) < 1 ? 1 : 0;
    EXPECT_GT(missing, 1u);

    // Adjust the tree (Section 4.7.2) and push the next update: every
    // up replica receives it, and the v1 gap fills by pulling from
    // parents on the rebuilt tree (a few rounds, since a stale node's
    // parent may itself still be catching up).
    tier.rebuildTree();
    tier.injectCommitted(mk(2), 2);
    sim.runUntil(sim.now() + 15.0);
    // Catch-up cascades top-down through the rebuilt tree: a stale
    // node's parent may itself need a round first, so allow depth-many
    // rounds (fanout 2 over 31 nodes => depth ~5-7).
    for (int round = 0; round < 8; round++) {
        for (std::size_t i = 0; i < tier.size(); i++) {
            auto &rep = tier.replica(i);
            if (net.isUp(rep.nodeId()) &&
                rep.committedVersion(obj) < 2 &&
                tier.tree().contains(rep.nodeId())) {
                rep.fetchFromParent(obj);
            }
        }
        sim.runUntil(sim.now() + 15.0);
    }

    for (std::size_t i = 0; i < tier.size(); i++) {
        auto &rep = tier.replica(i);
        if (!net.isUp(rep.nodeId()))
            continue;
        EXPECT_EQ(rep.committedVersion(obj), 2u) << "replica " << i;
    }
}

} // namespace
} // namespace oceanstore
