/** @file Secondary tier tests: epidemic + dissemination (Sec 4.4.3). */

#include <gtest/gtest.h>

#include "consistency/secondary.h"
#include "runtime/sim_runtime.h"

namespace oceanstore {
namespace {

Update
appendUpdate(const Guid &obj, const std::string &text, Timestamp ts)
{
    Update u;
    u.objectGuid = obj;
    UpdateClause clause;
    clause.actions.push_back(AppendBlock{toBytes(text)});
    u.clauses.push_back(std::move(clause));
    u.timestamp = ts;
    return u;
}

struct TierFixture
{
    explicit TierFixture(std::size_t replicas,
                         SecondaryConfig cfg = {})
        : net(sim, netCfg())
    {
        Rng rng(0x7ea);
        std::vector<std::pair<double, double>> pos;
        for (std::size_t i = 0; i < replicas; i++)
            pos.emplace_back(rng.uniform(), rng.uniform());
        tier = std::make_unique<SecondaryTier>(rt, pos, cfg);
        obj = Guid::hashOf("shared-object");
    }

    static NetworkConfig
    netCfg()
    {
        NetworkConfig cfg;
        cfg.jitter = 0.01;
        return cfg;
    }

    Simulator sim;
    Network net;
    SimRuntime rt{sim, net};
    std::unique_ptr<SecondaryTier> tier;
    Guid obj;
};

TEST(Secondary, TreePushReachesAllReplicas)
{
    TierFixture fx(16);
    fx.tier->injectCommitted(appendUpdate(fx.obj, "v1", {1, 1}), 1);
    fx.sim.runUntil(30.0);
    EXPECT_TRUE(fx.tier->allCommitted(fx.obj, 1));
}

TEST(Secondary, SequentialCommitsApplyInOrderEverywhere)
{
    TierFixture fx(12);
    for (VersionNum v = 1; v <= 5; v++) {
        fx.tier->injectCommitted(
            appendUpdate(fx.obj, "v" + std::to_string(v),
                         {v, 1}),
            v);
    }
    fx.sim.runUntil(60.0);
    ASSERT_TRUE(fx.tier->allCommitted(fx.obj, 5));
    // Every replica has identical content, in commit order.
    auto &r0 = fx.tier->replica(0);
    auto expect = r0.committedObject(fx.obj).logicalContent();
    ASSERT_EQ(expect.size(), 5u);
    for (std::size_t i = 1; i < fx.tier->size(); i++) {
        EXPECT_EQ(
            fx.tier->replica(i).committedObject(fx.obj).logicalContent(),
            expect);
    }
}

TEST(Secondary, OutOfOrderPushesAreBuffered)
{
    // Deliver v2's push before v1 by injecting at the root in reverse
    // order: the root applies them in order anyway thanks to
    // buffering at each replica.
    TierFixture fx(8);
    auto u1 = appendUpdate(fx.obj, "v1", {1, 1});
    auto u2 = appendUpdate(fx.obj, "v2", {2, 1});
    fx.tier->injectCommitted(u2, 2);
    fx.tier->injectCommitted(u1, 1);
    fx.sim.runUntil(30.0);
    EXPECT_TRUE(fx.tier->allCommitted(fx.obj, 2));
}

TEST(Secondary, TentativeSpreadsEpidemically)
{
    TierFixture fx(24);
    auto u = appendUpdate(fx.obj, "tentative", {5, 9});
    fx.tier->startAntiEntropy();
    fx.tier->submitTentative(3, u);
    fx.sim.runUntil(20.0);
    fx.tier->stopAntiEntropy();
    // Rumor + anti-entropy should have infected everyone.
    EXPECT_EQ(fx.tier->tentativeSpread(u.id()), fx.tier->size());
}

TEST(Secondary, EpidemicOnlyModeConvergesCommitted)
{
    SecondaryConfig cfg;
    cfg.treePush = false; // ablation: anti-entropy carries commits
    cfg.antiEntropyPeriod = 0.3;
    TierFixture fx(16, cfg);
    fx.tier->startAntiEntropy();
    fx.tier->injectCommitted(appendUpdate(fx.obj, "v1", {1, 1}), 1);
    fx.sim.runUntil(60.0);
    fx.tier->stopAntiEntropy();
    EXPECT_TRUE(fx.tier->allCommitted(fx.obj, 1));
}

TEST(Secondary, TentativeOrderedByTimestamp)
{
    TierFixture fx(4);
    auto late = appendUpdate(fx.obj, "late", {200, 1});
    auto early = appendUpdate(fx.obj, "early", {100, 2});
    // Arrival order is late-then-early; tentative view must order by
    // timestamp (Section 4.4.3 optimistic ordering).
    fx.tier->submitTentative(0, late);
    fx.tier->submitTentative(0, early);
    auto view = fx.tier->replica(0).tentativeObject(fx.obj);
    ASSERT_EQ(view.numLogicalBlocks(), 2u);
    EXPECT_EQ(toString(view.logicalBlock(0)), "early");
    EXPECT_EQ(toString(view.logicalBlock(1)), "late");
}

TEST(Secondary, CommitClearsMatchingTentative)
{
    TierFixture fx(6);
    auto u = appendUpdate(fx.obj, "x", {1, 1});
    fx.tier->submitTentative(0, u);
    EXPECT_EQ(fx.tier->replica(0).tentativeCount(), 1u);
    fx.tier->injectCommitted(u, 1);
    fx.sim.runUntil(20.0);
    for (std::size_t i = 0; i < fx.tier->size(); i++)
        EXPECT_EQ(fx.tier->replica(i).tentativeCount(), 0u)
            << "replica " << i;
}

TEST(Secondary, InvalidationModeMarksLeavesStale)
{
    SecondaryConfig cfg;
    cfg.invalidateAtLeaves = true;
    TierFixture fx(16, cfg);
    auto u = appendUpdate(fx.obj, "v1", {1, 1});
    fx.tier->injectCommitted(u, 1);
    fx.sim.runUntil(30.0);

    // Leaves received invalidations, not bodies.
    bool some_leaf_stale = false;
    for (std::size_t i = 1; i < fx.tier->size(); i++) {
        auto &rep = fx.tier->replica(i);
        if (fx.tier->tree().isLeaf(rep.nodeId())) {
            if (rep.isStale(fx.obj)) {
                some_leaf_stale = true;
                EXPECT_EQ(rep.committedVersion(fx.obj), 0u);
            }
        } else {
            EXPECT_EQ(rep.committedVersion(fx.obj), 1u);
        }
    }
    EXPECT_TRUE(some_leaf_stale);
}

TEST(Secondary, StaleLeafFetchesOnDemand)
{
    SecondaryConfig cfg;
    cfg.invalidateAtLeaves = true;
    TierFixture fx(16, cfg);
    fx.tier->injectCommitted(appendUpdate(fx.obj, "v1", {1, 1}), 1);
    fx.sim.runUntil(30.0);

    // Find a stale leaf and pull.
    for (std::size_t i = 1; i < fx.tier->size(); i++) {
        auto &rep = fx.tier->replica(i);
        if (rep.isStale(fx.obj)) {
            rep.fetchFromParent(fx.obj);
            fx.sim.runUntil(fx.sim.now() + 10.0);
            EXPECT_EQ(rep.committedVersion(fx.obj), 1u);
            EXPECT_FALSE(rep.isStale(fx.obj));
            return;
        }
    }
    GTEST_SKIP() << "no stale leaf in this topology";
}

TEST(Secondary, InvalidationSavesBytesVersusFullPush)
{
    // The bandwidth argument for invalidation at the leaves: big
    // update bodies don't travel the last hop.
    Bytes big(20000, 0xaa);
    auto mk = [&](bool inval) {
        SecondaryConfig cfg;
        cfg.invalidateAtLeaves = inval;
        TierFixture fx(24, cfg);
        Update u;
        u.objectGuid = fx.obj;
        UpdateClause clause;
        clause.actions.push_back(AppendBlock{big});
        u.clauses.push_back(clause);
        u.timestamp = {1, 1};
        fx.net.resetCounters();
        fx.tier->injectCommitted(u, 1);
        fx.sim.runUntil(60.0);
        return fx.net.totalBytes();
    };
    EXPECT_LT(mk(true), mk(false));
}

TEST(Secondary, AntiEntropyRepairsPartitionedReplica)
{
    SecondaryConfig cfg;
    cfg.antiEntropyPeriod = 0.3;
    TierFixture fx(10, cfg);
    // Take replica 5 offline during the push.
    NodeId victim = fx.tier->replica(5).nodeId();
    fx.net.setDown(victim);
    fx.tier->injectCommitted(appendUpdate(fx.obj, "v1", {1, 1}), 1);
    fx.sim.runUntil(20.0);
    EXPECT_EQ(fx.tier->replica(5).committedVersion(fx.obj), 0u);

    // It recovers; anti-entropy brings it up to date.
    fx.net.setUp(victim);
    fx.tier->startAntiEntropy();
    bool caught_up = false;
    for (int round = 0; round < 300 && !caught_up; round++) {
        fx.sim.runUntil(fx.sim.now() + 1.0);
        caught_up = fx.tier->replica(5).committedVersion(fx.obj) == 1;
    }
    fx.tier->stopAntiEntropy();
    EXPECT_TRUE(caught_up);
}

TEST(SecondaryTier, PushSharesOneBuffer)
{
    // One tree push hands every replica the same block bytes: copies
    // of the update in messages, retransmit closures and log entries
    // all alias the injected update's buffer.
    TierFixture fx(16);
    Update u = appendUpdate(fx.obj, std::string(4096, 'x'), {1, 1});
    const std::uint8_t *bytes =
        std::get<AppendBlock>(u.clauses[0].actions[0]).ciphertext.data();
    fx.tier->injectCommitted(u, 1);
    fx.sim.runUntil(30.0);
    ASSERT_TRUE(fx.tier->allCommitted(fx.obj, 1));
    for (std::size_t i = 0; i < fx.tier->size(); i++) {
        EXPECT_EQ(
            fx.tier->replica(i).committedObject(fx.obj).logicalBlock(0).data(),
            bytes)
            << "replica " << i;
    }
}

TEST(SecondaryTier, ReplicasShareOneUpdate)
{
    // One committed update pushed through 48 replicas is one object:
    // every replica's log entry for the version points at it, and it
    // was shared with its id/size memo already warm, so no replica
    // ever writes it.
    TierFixture fx(48);
    Update u = appendUpdate(fx.obj, std::string(512, 'u'), {1, 1});
    ASSERT_FALSE(u.identityCached());
    fx.tier->injectCommitted(u, 1);
    fx.sim.runUntil(30.0);
    ASSERT_TRUE(fx.tier->allCommitted(fx.obj, 1));

    const auto &root_log = fx.tier->replica(0).committedObject(fx.obj).log();
    ASSERT_EQ(root_log.size(), 1u);
    const Update *shared = root_log[0].update.get();
    EXPECT_TRUE(shared->identityCached());
    EXPECT_EQ(shared->id(), u.id());
    for (std::size_t i = 0; i < fx.tier->size(); i++) {
        const auto &log = fx.tier->replica(i).committedObject(fx.obj).log();
        ASSERT_EQ(log.size(), 1u) << "replica " << i;
        EXPECT_TRUE(log[0].committed);
        EXPECT_EQ(log[0].versionAfter, 1u);
        EXPECT_EQ(log[0].update.get(), shared) << "replica " << i;
    }
    EXPECT_GE(root_log[0].update.use_count(), 48);
}

} // namespace
} // namespace oceanstore
