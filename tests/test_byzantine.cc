/** @file Primary-tier Byzantine agreement tests (Section 4.4). */

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>

#include <gtest/gtest.h>

#include "consistency/byzantine.h"
#include "consistency/cost_model.h"
#include "runtime/runtime.h"
#include "sim/fault.h"

namespace oceanstore {
namespace {

struct PbftFixture
{
    explicit PbftFixture(unsigned m, double drop_rate = 0.0,
                         RetryPolicy client_retry = PbftConfig{}.clientRetry)
        : net(sim, netCfg()),
          faults(sim, net, FaultPlan{.drop = drop_rate})
    {
        if (drop_rate > 0)
            faults.arm();
        unsigned n = 3 * m + 1;
        std::vector<std::pair<double, double>> pos;
        for (unsigned r = 0; r < n; r++) {
            double angle = 6.28318 * r / n;
            pos.emplace_back(0.5 + 0.05 * std::cos(angle),
                             0.5 + 0.05 * std::sin(angle));
        }
        PbftConfig cfg;
        cfg.m = m;
        cfg.clientRetry = client_retry;
        cluster = std::make_unique<PbftCluster>(rt, pos, registry, cfg);
        cluster->executor = [this](unsigned, const Bytes &payload,
                                   std::uint64_t seq) {
            ByteWriter w;
            w.putU64(seq);
            w.putRaw(Sha1::hash(payload).data(), 4);
            return w.take();
        };
        client = cluster->makeClient(0.3, 0.3, 7);
    }

    static NetworkConfig
    netCfg()
    {
        NetworkConfig cfg;
        cfg.jitter = 0.02;
        return cfg;
    }

    /** Submit and run to completion; returns the outcome. */
    std::optional<PbftOutcome>
    submit(const Bytes &payload, double max_time = 120.0)
    {
        std::optional<PbftOutcome> result;
        client->submit(payload,
                       [&](const PbftOutcome &o) { result = o; });
        sim.runUntil(sim.now() + max_time);
        return result;
    }

    Simulator sim;
    Network net;
    FaultInjector faults;
    Runtime rt{sim, net};
    KeyRegistry registry;
    std::unique_ptr<PbftCluster> cluster;
    std::unique_ptr<PbftClient> client;
};

TEST(Pbft, HappyPathCommits)
{
    PbftFixture fx(1);
    auto out = fx.submit(toBytes("update-1"));
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->sequence, 1u);
    EXPECT_GT(out->latency, 0.0);
}

TEST(Pbft, SequentialUpdatesGetIncreasingSequence)
{
    PbftFixture fx(1);
    auto a = fx.submit(toBytes("a"));
    auto b = fx.submit(toBytes("b"));
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a->sequence, 1u);
    EXPECT_EQ(b->sequence, 2u);
}

TEST(Pbft, AllReplicasExecuteInSameOrder)
{
    PbftFixture fx(1);
    fx.submit(toBytes("a"));
    fx.submit(toBytes("b"));
    fx.submit(toBytes("c"));
    for (unsigned r = 0; r < fx.cluster->size(); r++)
        EXPECT_EQ(fx.cluster->replica(r).executedCount(), 3u);
}

TEST(Pbft, ConcurrentClientsAllSerialize)
{
    PbftFixture fx(1);
    auto c2 = fx.cluster->makeClient(0.7, 0.7, 8);
    std::vector<std::uint64_t> seqs;
    int done = 0;
    for (int i = 0; i < 3; i++) {
        fx.client->submit(toBytes("x" + std::to_string(i)),
                          [&](const PbftOutcome &o) {
                              seqs.push_back(o.sequence);
                              done++;
                          });
        c2->submit(toBytes("y" + std::to_string(i)),
                   [&](const PbftOutcome &o) {
                       seqs.push_back(o.sequence);
                       done++;
                   });
    }
    fx.sim.runUntil(120.0);
    EXPECT_EQ(done, 6);
    std::sort(seqs.begin(), seqs.end());
    for (std::uint64_t i = 0; i < seqs.size(); i++)
        EXPECT_EQ(seqs[i], i + 1); // a total order with no gaps
}

TEST(Pbft, ToleratesCrashedBackup)
{
    PbftFixture fx(1);
    fx.cluster->replica(2).setFault(ReplicaFault::Crash);
    auto out = fx.submit(toBytes("payload"));
    ASSERT_TRUE(out.has_value());
}

TEST(Pbft, ToleratesByzantineBackup)
{
    PbftFixture fx(1);
    fx.cluster->replica(3).setFault(ReplicaFault::Byzantine);
    auto out = fx.submit(toBytes("payload"));
    ASSERT_TRUE(out.has_value());
    // Correct replicas executed; the byzantine one's garbage votes
    // could not forge a different outcome.
    EXPECT_EQ(fx.cluster->replica(0).executedCount(), 1u);
}

TEST(Pbft, ToleratesMCrashesWithLargerTier)
{
    PbftFixture fx(2); // n = 7, tolerates 2
    fx.cluster->replica(4).setFault(ReplicaFault::Crash);
    fx.cluster->replica(5).setFault(ReplicaFault::Byzantine);
    auto out = fx.submit(toBytes("payload"));
    ASSERT_TRUE(out.has_value());
}

TEST(Pbft, LeaderCrashTriggersViewChange)
{
    PbftFixture fx(1);
    fx.cluster->replica(0).setFault(ReplicaFault::Crash); // leader
    auto out = fx.submit(toBytes("payload"), 300.0);
    ASSERT_TRUE(out.has_value()); // committed under the new view
    EXPECT_GT(fx.cluster->replica(1).view(), 0u);
}

TEST(Pbft, ClientRejectsForgedReplies)
{
    // A byzantine replica lies in its reply; the client's m+1
    // matching-vote quorum must deliver the honest executor's result,
    // never the forgery.
    PbftFixture fx(1);
    fx.cluster->replica(1).setFault(ReplicaFault::Byzantine);
    Bytes payload = toBytes("p");
    auto out = fx.submit(payload, 300.0);
    ASSERT_TRUE(out.has_value());

    // Recompute the honest executor result for seq 1.
    ByteWriter w;
    w.putU64(1);
    w.putRaw(Sha1::hash(payload).data(), 4);
    EXPECT_EQ(out->result, w.buffer());
    EXPECT_NE(toString(out->result), "forged-result");
}

TEST(Pbft, ByteCostScalesWithModel)
{
    // Measured bytes should track b = c1 n^2 + (u + c2) n + c3: the
    // n-linear term dominates for large updates, and the measured
    // total for a large update stays within a small factor of u*n.
    for (unsigned m : {1u, 2u}) {
        PbftFixture fx(m);
        unsigned n = 3 * m + 1;
        std::size_t u = 200 * 1024;
        fx.net.resetCounters();
        auto out = fx.submit(Bytes(u, 0x5a));
        ASSERT_TRUE(out.has_value());
        double measured = static_cast<double>(fx.net.totalBytes());
        double floor = static_cast<double>(u) * n;
        EXPECT_GT(measured, floor * 0.9);
        EXPECT_LT(measured, floor * 2.5) << "m=" << m;
    }
}

TEST(Pbft, SmallUpdateDominatedByQuadraticTerm)
{
    PbftFixture fx(4); // n = 13
    std::size_t u = 100;
    fx.net.resetCounters();
    auto out = fx.submit(Bytes(u, 1));
    ASSERT_TRUE(out.has_value());
    // Normalized cost far above 1 for tiny updates (Figure 6 left).
    double normalized = static_cast<double>(fx.net.totalBytes()) /
                        (static_cast<double>(u) * 13.0);
    EXPECT_GT(normalized, 5.0);
}

TEST(Pbft, CostModelMatchesPaperAnchors)
{
    // Figure 6 anchors for m=4, n=13: normalized cost ~2 at 4 kB and
    // approaching 1 at ~100 kB.
    UpdateCostModel model;
    EXPECT_NEAR(model.normalizedCost(4 * 1024, 13), 2.0, 0.6);
    EXPECT_LT(model.normalizedCost(100 * 1024, 13), 1.2);
    // Larger tiers cost more at small sizes.
    EXPECT_GT(model.normalizedCost(1024, 13),
              model.normalizedCost(1024, 7));
}

TEST(Pbft, SurvivesMessageDrops)
{
    PbftFixture fx(1, 0.05);
    auto out = fx.submit(toBytes("lossy"), 300.0);
    ASSERT_TRUE(out.has_value());
}

TEST(Pbft, RejectsWrongPositionCount)
{
    Simulator sim;
    Network net(sim, {});
    KeyRegistry reg;
    PbftConfig cfg;
    cfg.m = 1;
    std::vector<std::pair<double, double>> pos(3, {0.5, 0.5}); // not 4
    Runtime rt(sim, net);
    EXPECT_THROW(PbftCluster(rt, pos, reg, cfg), std::runtime_error);
}


/**
 * Backup 1 of an n = 7 tier (m = 2, quorum 5) loses its pre-prepare:
 * until t = 1 s the leader's link to it and every reply to the client
 * drop, so the others commit and backup 1 holds only their early
 * prepares and commits.  Rank 6 is Byzantine and votes a digest nobody
 * proposed.  From t = 1 s the honest backups' links to backup 1 drop
 * instead, so the early votes are all it will get from them; the
 * client's retry makes the leader retransmit the pre-prepare.  With
 * @p withhold_rank2 rank 2's early votes are dropped too, leaving
 * backup 1 four matching commits: one short unless rank 6's counted.
 * @return backup 1's executed count once the run drains.
 */
std::uint64_t
runEarlyVotes(bool withhold_rank2)
{
    PbftFixture fx(2);
    PbftCluster &tier = *fx.cluster;
    tier.replica(6).setFault(ReplicaFault::Byzantine);
    const NodeId backup = tier.replica(1).nodeId();

    FaultPlan before;
    before.links.push_back({tier.replica(0).nodeId(), backup, 1.0});
    if (withhold_rank2)
        before.links.push_back({tier.replica(2).nodeId(), backup, 1.0});
    for (unsigned r = 0; r < tier.size(); r++)
        before.links.push_back(
            {tier.replica(r).nodeId(), fx.client->nodeId(), 1.0});
    FaultPlan after;
    for (unsigned r = 2; r <= 5; r++)
        after.links.push_back({tier.replica(r).nodeId(), backup, 1.0});
    FaultInjector early(fx.sim, fx.net, before);
    FaultInjector late(fx.sim, fx.net, after);
    early.arm();
    fx.sim.scheduleAt(1.0, [&] {
        early.disarm();
        late.arm();
    });

    auto out = fx.submit(toBytes("early"), 60.0);
    EXPECT_TRUE(out && out->completed);
    EXPECT_EQ(out ? out->sequence : 0u, 1u);
    for (unsigned r : {0u, 2u, 3u, 4u, 5u})
        EXPECT_EQ(tier.replica(r).executedCount(), 1u) << "rank " << r;
    EXPECT_EQ(tier.replica(1).view(), 0u); // no view change hid it
    return tier.replica(1).executedCount();
}

TEST(Pbft, EarlyVotesCountOnceThePrePrepareArrives)
{
    // Five matching early commits (four honest, plus its own): the
    // slot commits the moment the pre-prepare supplies the digest.
    EXPECT_EQ(runEarlyVotes(false), 1u);
    // Four honest: the Byzantine rank's mismatched early commit would
    // make five, and must not.
    EXPECT_EQ(runEarlyVotes(true), 0u);
}

TEST(Pbft, ClientForgetsFinishedRequests)
{
    // Two attempts 0.5 s apart, then give up at 1 s.
    PbftFixture fx(1, 0.0, RetryPolicy{0.5, 1.0, 0.5, 2, 0.0});
    for (int i = 0; i < 3; i++) {
        auto out = fx.submit(toBytes("done-" + std::to_string(i)), 10.0);
        ASSERT_TRUE(out && out->completed);
        // The quorum's last replies arrived after completion.
        EXPECT_EQ(fx.client->pendingCount(), 0u);
    }

    // The leader is cut off: the backups need a view change (3 s) to
    // commit, by which time the client has given up.
    fx.net.setPartition(fx.cluster->replica(0).nodeId(), 1);
    std::vector<PbftOutcome> outcomes;
    fx.client->submit(toBytes("late"), [&](const PbftOutcome &o) {
        outcomes.push_back(o);
    });
    EXPECT_EQ(fx.client->pendingCount(), 1u);
    fx.sim.runUntil(fx.sim.now() + 2.0);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].completed);
    EXPECT_EQ(fx.client->pendingCount(), 0u);

    fx.sim.runUntil(fx.sim.now() + 120.0);
    EXPECT_EQ(outcomes.size(), 1u); // the late replies changed nothing
    EXPECT_EQ(fx.client->pendingCount(), 0u);
    // It did commit, and the backups replied to a client that had
    // already forgotten it.
    for (unsigned r = 1; r < fx.cluster->size(); r++)
        EXPECT_EQ(fx.cluster->replica(r).executedCount(), 4u) << r;
}

TEST(Pbft, CommitCertificateVerifiesOffline)
{
    // Section 4.4.4: a party who did not participate verifies the
    // serialization result from the certificate alone.
    PbftFixture fx(1);
    auto out = fx.submit(toBytes("certified"));
    ASSERT_TRUE(out.has_value());
    ASSERT_GE(out->certificate.signatures.size(), 2u); // m+1

    auto keys = fx.cluster->publicKeys();
    EXPECT_TRUE(out->certificate.verify(fx.registry, keys,
                                        fx.cluster->faultTolerance() +
                                            1));
}

TEST(Pbft, TamperedCertificateFails)
{
    PbftFixture fx(1);
    auto out = fx.submit(toBytes("certified"));
    ASSERT_TRUE(out.has_value());
    auto keys = fx.cluster->publicKeys();

    CommitCertificate forged = out->certificate;
    forged.result = toBytes("forged result");
    EXPECT_FALSE(forged.verify(fx.registry, keys, 2));

    CommitCertificate renumbered = out->certificate;
    renumbered.sequence += 1;
    EXPECT_FALSE(renumbered.verify(fx.registry, keys, 2));
}

TEST(Pbft, CertificateDuplicateRanksDoNotInflateQuorum)
{
    PbftFixture fx(1);
    auto out = fx.submit(toBytes("certified"));
    ASSERT_TRUE(out.has_value());
    auto keys = fx.cluster->publicKeys();

    CommitCertificate padded = out->certificate;
    // Duplicate one share many times: distinct ranks still bound the
    // verified count.
    auto first = padded.signatures[0];
    for (int i = 0; i < 5; i++)
        padded.signatures.push_back(first);
    unsigned distinct = 0;
    {
        std::set<unsigned> ranks;
        for (const auto &[rank, sig] : out->certificate.signatures)
            ranks.insert(rank);
        distinct = static_cast<unsigned>(ranks.size());
    }
    EXPECT_TRUE(padded.verify(fx.registry, keys, distinct));
    EXPECT_FALSE(padded.verify(fx.registry, keys, distinct + 1));
}

} // namespace
} // namespace oceanstore
