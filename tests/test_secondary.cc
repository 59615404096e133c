/** @file Secondary tier tests: epidemic + dissemination (Sec 4.4.3). */

#include <gtest/gtest.h>

#include "consistency/secondary.h"
#include "runtime/runtime.h"
#include "sim/fault.h"

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
    Runtime rt{sim, net};
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
    // The 48 replicas hold one state, so the update is held once, by
    // that state's log entry; its memo was warm before it was shared.
    const DataObject *state = &fx.tier->replica(0).committedObject(fx.obj);
    for (std::size_t i = 0; i < fx.tier->size(); i++) {
        EXPECT_EQ(&fx.tier->replica(i).committedObject(fx.obj), state)
            << "replica " << i;
    }
    EXPECT_TRUE(state->log()[0].update->identityCached());
}

TEST(SecondaryTier, ReplicasShareOneState)
{
    // One push leaves every replica committed to the same immutable
    // version; once all have moved past it, nothing holds it and it is
    // freed (the successor memo is weak).
    TierFixture fx(48);
    fx.tier->injectCommitted(appendUpdate(fx.obj, "v1", {1, 1}), 1);
    fx.sim.runUntil(30.0);
    ASSERT_TRUE(fx.tier->allCommitted(fx.obj, 1));
    SharedState v1 = fx.tier->replica(0).committedState(fx.obj);
    ASSERT_NE(v1, nullptr);
    EXPECT_TRUE(v1->logicalCached());
    for (std::size_t i = 0; i < fx.tier->size(); i++) {
        EXPECT_EQ(&fx.tier->replica(i).committedObject(fx.obj), v1.get())
            << "replica " << i;
    }
    std::weak_ptr<const DataObject> weak_v1 = v1;
    v1.reset();
    EXPECT_FALSE(weak_v1.expired());

    fx.tier->injectCommitted(appendUpdate(fx.obj, "v2", {2, 1}), 2);
    fx.sim.runUntil(60.0);
    ASSERT_TRUE(fx.tier->allCommitted(fx.obj, 2));
    EXPECT_TRUE(weak_v1.expired());
    const DataObject *v2 = &fx.tier->replica(0).committedObject(fx.obj);
    for (std::size_t i = 0; i < fx.tier->size(); i++) {
        EXPECT_EQ(&fx.tier->replica(i).committedObject(fx.obj), v2)
            << "replica " << i;
    }

    // An object no update has reached is the tier's one empty state.
    Guid unknown = Guid::hashOf("never-written");
    EXPECT_EQ(fx.tier->replica(3).committedState(unknown), nullptr);
    const DataObject &e3 = fx.tier->replica(3).committedObject(unknown);
    EXPECT_EQ(&fx.tier->replica(7).committedObject(unknown), &e3);
    EXPECT_EQ(e3.version(), 0u);
    EXPECT_TRUE(e3.logicalCached());
}

/**
 * Update @p v of a test object: valid only at version v - 1, it
 * inserts at the front every third version and appends otherwise.
 */
SharedUpdate
versionedUpdate(const Guid &obj, VersionNum v, const std::string &text)
{
    Update u;
    u.objectGuid = obj;
    UpdateClause clause;
    clause.predicates.push_back(CompareVersion{v - 1});
    if (v % 3 == 0)
        clause.actions.push_back(InsertBlock{0, toBytes(text)});
    else
        clause.actions.push_back(AppendBlock{toBytes(text)});
    u.clauses.push_back(std::move(clause));
    u.timestamp = {v, 1};
    return shareUpdate(std::move(u));
}

TEST(SecondaryTier, SharedStateMatchesPrivateModel)
{
    // Two tiers on one lossy network commit the same three objects.
    // Their version-1 updates differ and every later update is one
    // shared object injected into both, so a successor memo that
    // ignored its parent would hand one tier the other's state.  Each
    // replica must end exactly where a private DataObject applying the
    // same updates one by one ends.
    constexpr VersionNum kVersions = 6;
    constexpr std::size_t kObjects = 3;
    std::uint64_t retransmits = 0, fetches = 0, repairs = 0;
    for (std::uint64_t seed = 1; seed <= 16; seed++) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Simulator sim;
        NetworkConfig ncfg;
        ncfg.jitter = 0.01;
        ncfg.seed = mixSeed64(0x6e65u, seed);
        Network net(sim, ncfg);
        Runtime rt(sim, net);
        Rng rng(mixSeed64(0x5eedu, seed));

        SecondaryConfig cfg;
        cfg.antiEntropyPeriod = 0.3;
        cfg.invalidateAtLeaves = seed % 2 == 1;
        cfg.seed = mixSeed64(0x5ec0d417u, seed);
        std::vector<std::unique_ptr<SecondaryTier>> tiers;
        for (int t = 0; t < 2; t++) {
            std::vector<std::pair<double, double>> pos;
            for (int i = 0; i < 12; i++)
                pos.emplace_back(rng.uniform(), rng.uniform());
            tiers.push_back(std::make_unique<SecondaryTier>(rt, pos, cfg));
        }

        FaultPlan plan;
        plan.drop = 0.15;
        plan.duplicate = 0.1;
        plan.delayJitter = 0.02;
        plan.seed = mixSeed64(0xfa017u, seed);
        FaultInjector inj(sim, net, plan);
        inj.arm();

        // updates[t][o][v - 1]: the update that makes version v.
        std::vector<Guid> objs;
        std::vector<std::vector<std::vector<SharedUpdate>>> updates(2);
        for (std::size_t o = 0; o < kObjects; o++) {
            objs.push_back(Guid::hashOf("model-object-" + std::to_string(o)));
            std::vector<SharedUpdate> shared;
            for (VersionNum v = 2; v <= kVersions; v++) {
                shared.push_back(versionedUpdate(
                    objs[o], v,
                    "o" + std::to_string(o) + "v" + std::to_string(v)));
            }
            for (int t = 0; t < 2; t++) {
                std::vector<SharedUpdate> seq{versionedUpdate(
                    objs[o], 1,
                    "tier" + std::to_string(t) + "o" + std::to_string(o))};
                seq.insert(seq.end(), shared.begin(), shared.end());
                updates[t].push_back(std::move(seq));
            }
        }

        // Inject each version at ~0.4 s spacing: sometimes swapped
        // with its successor (out of order), sometimes injected again
        // later (a duplicate at the root).
        for (int t = 0; t < 2; t++) {
            for (std::size_t o = 0; o < kObjects; o++) {
                for (VersionNum v = 1; v <= kVersions; v++) {
                    double at = 0.4 * static_cast<double>(v) +
                                rng.uniform(0.0, 0.1);
                    if (v % 2 == 1 && v < kVersions && rng.below(3) == 0)
                        at += 0.45; // lands after version v + 1
                    SharedUpdate u = updates[t][o][v - 1];
                    SecondaryTier *tier = tiers[t].get();
                    sim.scheduleAt(at, [tier, u, v] {
                        tier->injectCommitted(u, v);
                    });
                    if (rng.below(4) == 0) {
                        sim.scheduleAt(at + rng.uniform(0.0, 2.0),
                                       [tier, u, v] {
                                           tier->injectCommitted(u, v);
                                       });
                    }
                }
            }
        }
        // Replicas also pull from their tree parent now and then.
        for (int k = 0; k < 40; k++) {
            SecondaryTier *tier = tiers[rng.below(2)].get();
            std::size_t r = 1 + rng.below(tier->size() - 1);
            Guid obj = objs[rng.below(kObjects)];
            sim.scheduleAt(rng.uniform(0.5, 8.0), [tier, r, obj] {
                tier->replica(r).fetchFromParent(obj);
            });
        }

        for (auto &tier : tiers)
            tier->startAntiEntropy();
        sim.runUntil(40.0);
        for (auto &tier : tiers) {
            tier->stopAntiEntropy();
            retransmits += tier->pushRetransmits();
        }
        sim.run();
        const auto &sent = net.bytesByType();
        if (auto it = sent.find("sec.fetch"); it != sent.end())
            fetches += it->second;
        if (auto it = sent.find("sec.updates"); it != sent.end())
            repairs += it->second;

        for (int t = 0; t < 2; t++) {
            for (std::size_t o = 0; o < kObjects; o++) {
                DataObject model(objs[o]);
                for (const SharedUpdate &u : updates[t][o])
                    ASSERT_TRUE(model.apply(Update(*u)).committed);
                for (std::size_t i = 0; i < tiers[t]->size(); i++) {
                    SCOPED_TRACE("tier " + std::to_string(t) + " object " +
                                 std::to_string(o) + " replica " +
                                 std::to_string(i));
                    SecondaryReplica &rep = tiers[t]->replica(i);
                    ASSERT_EQ(rep.committedVersion(objs[o]), kVersions);
                    const DataObject &got = rep.committedObject(objs[o]);
                    ASSERT_EQ(got.log().size(), model.log().size());
                    for (std::size_t e = 0; e < model.log().size(); e++) {
                        EXPECT_EQ(got.log()[e].update->id(),
                                  model.log()[e].update->id());
                        EXPECT_EQ(got.log()[e].committed,
                                  model.log()[e].committed);
                        EXPECT_EQ(got.log()[e].versionAfter,
                                  model.log()[e].versionAfter);
                    }
                    EXPECT_EQ(got.logicalContent(), model.logicalContent());
                    EXPECT_EQ(got.numPhysicalBlocks(),
                              model.numPhysicalBlocks());
                }
            }
        }
    }
    // The losses were real: pushes were retransmitted, and the pull
    // and anti-entropy paths carried committed records.
    EXPECT_GT(retransmits, 0u);
    EXPECT_GT(fetches, 0u);
    EXPECT_GT(repairs, 0u);
}

TEST(SecondaryTier, ForwardsEachVersionOnce)
{
    // v2 reaches the tree before v1, and the root sees each version
    // twice; the network also duplicates every message.  Every
    // replica still forwards each version to each child exactly once,
    // so each non-root replica is sent one sec.push per version.
    TierFixture fx(16);
    FaultPlan plan;
    plan.duplicate = 1.0;
    plan.seed = 0xd0b1eu;
    FaultInjector inj(fx.sim, fx.net, plan);
    inj.arm();
    SharedUpdate u1 = shareUpdate(appendUpdate(fx.obj, "v1", {1, 1}));
    SharedUpdate u2 = shareUpdate(appendUpdate(fx.obj, "v2", {2, 1}));
    fx.net.resetCounters();
    fx.tier->injectCommitted(u2, 2);
    fx.tier->injectCommitted(u1, 1);
    fx.tier->injectCommitted(u1, 1);
    fx.tier->injectCommitted(u2, 2);
    fx.sim.runUntil(30.0);
    ASSERT_TRUE(fx.tier->allCommitted(fx.obj, 2));
    EXPECT_GT(inj.duplicated(), 0u);
    EXPECT_EQ(fx.tier->pushRetransmits(), 0u);
    std::uint64_t per_round = (u1->wireSize() + 8 + messageHeaderBytes) +
                              (u2->wireSize() + 8 + messageHeaderBytes);
    EXPECT_EQ(fx.net.bytesByType().at("sec.push"),
              (fx.tier->size() - 1) * per_round);
}

} // namespace
} // namespace oceanstore
