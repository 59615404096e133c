/** @file Deep archival storage system tests (Section 4.5). */

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "archive/archival.h"
#include "erasure/reed_solomon.h"
#include "runtime/runtime.h"
#include "sim/churn.h"
#include "sim/fault.h"
#include "util/stats.h"

namespace oceanstore {
namespace {

struct ArchiveFixture
{
    explicit ArchiveFixture(std::size_t servers = 40,
                            ArchiveConfig cfg = {},
                            double drop_rate = 0.0)
        : net(sim, netCfg()),
          faults(sim, net, FaultPlan{.drop = drop_rate}), codec(8, 16)
    {
        if (drop_rate > 0)
            faults.arm();
        Rng rng(0xa5c1);
        std::vector<std::pair<double, double>> pos;
        std::vector<unsigned> domains;
        for (std::size_t i = 0; i < servers; i++) {
            pos.emplace_back(rng.uniform(), rng.uniform());
            domains.push_back(static_cast<unsigned>(i % 4));
        }
        sys = std::make_unique<ArchivalSystem>(rt, pos, domains, cfg);
        for (std::size_t i = 0; i < servers; i++) {
            disks.push_back(std::make_unique<NodeStorage>(StorageSetup{}));
            sys->server(i).attachStorage(disks.back().get());
        }
        client = sys->makeClient(0.5, 0.5);
    }

    static NetworkConfig
    netCfg()
    {
        NetworkConfig cfg;
        cfg.jitter = 0.01;
        return cfg;
    }

    Bytes
    sampleData(std::size_t n)
    {
        Rng rng(0xda7a);
        Bytes b(n);
        for (auto &x : b)
            x = static_cast<std::uint8_t>(rng.next());
        return b;
    }

    std::optional<ReconstructResult>
    reconstruct(const Guid &archive, double max_time = 60.0)
    {
        std::optional<ReconstructResult> result;
        sys->reconstruct(*client, archive,
                         [&](const ReconstructResult &r) { result = r; });
        sim.runUntil(sim.now() + max_time);
        return result;
    }

    /** Make every disk outside @p keep refuse any further record. */
    void
    fillDisksExcept(const std::set<std::size_t> &keep)
    {
        for (std::size_t i = 0; i < disks.size(); i++) {
            DiskImage &d = disks[i]->disk();
            if (!keep.count(i))
                d.capacity = std::max<std::uint64_t>(d.size(), 1);
        }
    }

    /** Servers holding any fragment. */
    std::set<std::size_t>
    holderSet()
    {
        std::set<std::size_t> held;
        for (std::size_t i = 0; i < sys->size(); i++) {
            if (sys->server(i).fragmentCount() > 0)
                held.insert(i);
        }
        return held;
    }

    /** Take down the first @p n servers holding a fragment; returns
     *  the fragment indices they held. */
    std::vector<std::uint32_t>
    downHolders(const Guid &archive, unsigned n)
    {
        std::vector<std::uint32_t> lost;
        for (std::size_t i = 0; i < sys->size() && n > 0; i++) {
            ArchivalServer &srv = sys->server(i);
            if (srv.fragmentCount() == 0)
                continue;
            for (std::uint32_t f = 0; f < codec.totalFragments(); f++) {
                if (srv.holds(archive, f))
                    lost.push_back(f);
            }
            net.setDown(srv.nodeId());
            n--;
        }
        return lost;
    }

    /** The up server holding fragment @p index of @p archive, or
     *  size() when none does. */
    std::size_t
    upHolderOf(const Guid &archive, std::uint32_t index)
    {
        for (std::size_t i = 0; i < sys->size(); i++) {
            if (net.isUp(sys->server(i).nodeId()) &&
                sys->server(i).holds(archive, index))
                return i;
        }
        return sys->size();
    }

    /** Checks that each fragment in @p moved now lives on its own up
     *  server, none of them in @p old_holders; returns those servers. */
    std::set<std::size_t>
    expectRehomedApart(const Guid &archive,
                       const std::vector<std::uint32_t> &moved,
                       const std::set<std::size_t> &old_holders)
    {
        std::set<std::size_t> homes;
        for (std::uint32_t index : moved) {
            std::size_t home = upHolderOf(archive, index);
            EXPECT_LT(home, sys->size()) << "fragment " << index;
            EXPECT_EQ(old_holders.count(home), 0u)
                << "fragment " << index << " re-homed on holder " << home;
            homes.insert(home);
        }
        EXPECT_EQ(homes.size(), moved.size())
            << "re-homed fragments share a server";
        return homes;
    }

    Simulator sim;
    Network net;
    FaultInjector faults;
    Runtime rt{sim, net};
    ReedSolomonCode codec;
    std::vector<std::unique_ptr<NodeStorage>> disks; //!< One per server.
    std::unique_ptr<ArchivalSystem> sys;
    std::unique_ptr<ArchivalClient> client;
};

TEST(Archive, DisperseThenReconstruct)
{
    ArchiveFixture fx;
    Bytes data = fx.sampleData(4096);
    Guid archive = fx.sys->disperse(fx.codec, data, 0);
    fx.sim.runUntil(10.0); // let store messages deliver
    EXPECT_EQ(fx.sys->survivingFragments(archive), 16u);

    auto res = fx.reconstruct(archive);
    ASSERT_TRUE(res.has_value());
    EXPECT_TRUE(res->success);
    EXPECT_EQ(res->data, data);
    EXPECT_GE(res->fragmentsReceived, 8u);
}

TEST(Archive, FragmentsSpreadAcrossDomains)
{
    ArchiveFixture fx;
    fx.sys->disperse(fx.codec, fx.sampleData(1024), 0);
    fx.sim.runUntil(10.0);
    // 16 fragments over 4 domains: each domain holds exactly 4, so
    // losing any one domain cannot destroy more than 4.
    std::map<unsigned, unsigned> per_domain;
    for (std::size_t i = 0; i < fx.sys->size(); i++) {
        auto &srv = fx.sys->server(i);
        per_domain[srv.domain()] +=
            static_cast<unsigned>(srv.fragmentCount());
    }
    for (const auto &[d, count] : per_domain)
        EXPECT_EQ(count, 4u) << "domain " << d;
}

TEST(Archive, SurvivesMassServerFailure)
{
    // "Nothing short of a global disaster could ever destroy
    // information": kill 40% of servers, data still reconstructs.
    ArchiveFixture fx;
    Bytes data = fx.sampleData(8192);
    Guid archive = fx.sys->disperse(fx.codec, data, 0);
    fx.sim.runUntil(10.0);

    Rng rng(7);
    std::vector<NodeId> server_nodes;
    for (std::size_t i = 0; i < fx.sys->size(); i++)
        server_nodes.push_back(fx.sys->server(i).nodeId());
    ChurnInjector::massFailure(fx.net, server_nodes, 0.4, rng);

    auto res = fx.reconstruct(archive, 120.0);
    ASSERT_TRUE(res.has_value());
    if (!res->success)
        GTEST_SKIP() << "unlucky draw killed >8 fragment holders";
    EXPECT_EQ(res->data, data);
}

TEST(Archive, FailsGracefullyWhenTooManyFragmentsLost)
{
    ArchiveFixture fx;
    Bytes data = fx.sampleData(2048);
    Guid archive = fx.sys->disperse(fx.codec, data, 0);
    fx.sim.runUntil(10.0);

    // Kill every holder.
    for (std::size_t i = 0; i < fx.sys->size(); i++) {
        if (fx.sys->server(i).fragmentCount() > 0)
            fx.net.setDown(fx.sys->server(i).nodeId());
    }
    auto res = fx.reconstruct(archive, 120.0);
    ASSERT_TRUE(res.has_value());
    EXPECT_FALSE(res->success);
}

TEST(Archive, CorruptedFragmentsIgnored)
{
    // A malicious server substituting data cannot pollute
    // reconstruction: fragments are self-verifying.
    ArchiveFixture fx;
    Bytes data = fx.sampleData(1024);
    FragmentSet set = fragmentObject(fx.codec, data);
    // Corrupted in storage.
    set.fragments[2].data = withByteFlipped(set.fragments[2].data, 0, 0xff);
    std::vector<Fragment> available(set.fragments.begin(),
                                    set.fragments.begin() + 10);
    auto out = reassembleObject(fx.codec, set.archiveGuid, data.size(),
                                available);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, data);
}

TEST(Archive, OverfactorRequestsMoreFragments)
{
    ArchiveConfig lean;
    lean.requestOverfactor = 1.0;
    ArchiveConfig eager;
    eager.requestOverfactor = 2.0;

    ArchiveFixture fx1(40, lean);
    Guid a1 = fx1.sys->disperse(fx1.codec, fx1.sampleData(1024), 0);
    fx1.sim.runUntil(10.0);
    auto r1 = fx1.reconstruct(a1);

    ArchiveFixture fx2(40, eager);
    Guid a2 = fx2.sys->disperse(fx2.codec, fx2.sampleData(1024), 0);
    fx2.sim.runUntil(10.0);
    auto r2 = fx2.reconstruct(a2);

    ASSERT_TRUE(r1 && r2);
    EXPECT_EQ(r1->fragmentsRequested, 8u);
    EXPECT_EQ(r2->fragmentsRequested, 16u);
}

TEST(Archive, ExtraRequestsBeatDropsOnLatency)
{
    // The Section 5 finding: under request drops, over-requesting
    // avoids waiting for the retry timeout.
    auto run = [](double over) {
        ArchiveConfig cfg;
        cfg.requestOverfactor = over;
        cfg.retryTimeout = 5.0;
        ArchiveFixture fx(40, cfg, 0.30);
        Bytes data = fx.sampleData(1024);
        // Dispersal must survive drops: repeat stores via repair.
        Guid archive = fx.sys->disperse(fx.codec, data, 0);
        fx.sim.runUntil(10.0);
        fx.sys->repairSweep();

        Accumulator lat;
        for (int t = 0; t < 10; t++) {
            auto r = fx.reconstruct(archive, 60.0);
            if (r && r->success)
                lat.add(r->latency);
        }
        return lat.count() ? lat.mean() : 1e9;
    };
    double lean = run(1.0);
    double eager = run(2.0);
    EXPECT_LT(eager, lean);
}

TEST(Archive, RepairSweepRestoresRedundancy)
{
    ArchiveConfig cfg;
    cfg.repairThreshold = 14;
    ArchiveFixture fx(40, cfg);
    Bytes data = fx.sampleData(4096);
    Guid archive = fx.sys->disperse(fx.codec, data, 0);
    fx.sim.runUntil(10.0);

    // Permanently lose four holders.
    unsigned downed = 0;
    for (std::size_t i = 0; i < fx.sys->size() && downed < 4; i++) {
        if (fx.sys->server(i).fragmentCount() > 0) {
            fx.net.setDown(fx.sys->server(i).nodeId());
            downed++;
        }
    }
    EXPECT_EQ(fx.sys->survivingFragments(archive), 12u);

    unsigned repaired = fx.sys->repairSweep();
    EXPECT_EQ(repaired, 1u);
    EXPECT_EQ(fx.sys->survivingFragments(archive), 16u);

    // The repaired archive still reconstructs bit-exactly.
    auto res = fx.reconstruct(archive, 60.0);
    ASSERT_TRUE(res.has_value());
    EXPECT_TRUE(res->success);
    EXPECT_EQ(res->data, data);
}

TEST(Archive, RepairSweepRehomesOnDistinctFreshServers)
{
    ArchiveConfig cfg;
    cfg.repairThreshold = 14;
    ArchiveFixture fx(40, cfg);
    Bytes data = fx.sampleData(4096);
    Guid archive = fx.sys->disperse(fx.codec, data, 0);
    fx.sim.runUntil(10.0);
    const std::set<std::size_t> old_holders = fx.holderSet();
    const std::vector<std::uint32_t> lost = fx.downHolders(archive, 4);
    ASSERT_EQ(lost.size(), 4u);

    EXPECT_EQ(fx.sys->repairSweep(), 1u);
    EXPECT_EQ(fx.sys->survivingFragments(archive), 16u);
    // One later failure must not take out several re-homed fragments,
    // and the repair spreads them over the four domains.
    std::set<unsigned> domains;
    for (std::size_t home : fx.expectRehomedApart(archive, lost, old_holders))
        domains.insert(fx.sys->server(home).domain());
    EXPECT_EQ(domains.size(), 4u);
    auto res = fx.reconstruct(archive, 60.0);
    ASSERT_TRUE(res && res->success);
    EXPECT_EQ(res->data, data);
}

TEST(Archive, RepairSweepCountsNoFragmentADiskRefused)
{
    ArchiveConfig cfg;
    cfg.repairThreshold = 14;
    ArchiveFixture fx(40, cfg);
    Guid archive = fx.sys->disperse(fx.codec, fx.sampleData(4096), 0);
    fx.sim.runUntil(10.0);
    const std::set<std::size_t> old_holders = fx.holderSet();
    ASSERT_EQ(fx.downHolders(archive, 4).size(), 4u);
    // Every server that could take a lost fragment refuses it.
    fx.fillDisksExcept(old_holders);

    EXPECT_EQ(fx.sys->repairSweep(), 0u);
    EXPECT_EQ(fx.sys->survivingFragments(archive), 12u);
    // No disk took a lost fragment, so no fresh server holds one.
    for (std::size_t i = 0; i < fx.sys->size(); i++) {
        if (!old_holders.count(i)) {
            EXPECT_EQ(fx.sys->server(i).fragmentCount(), 0u) << i;
        }
    }
}

TEST(Archive, UnknownArchiveFailsFast)
{
    ArchiveFixture fx;
    auto res = fx.reconstruct(Guid::hashOf("never-dispersed"), 5.0);
    ASSERT_TRUE(res.has_value());
    EXPECT_FALSE(res->success);
}

TEST(Archive, ForgedFragmentsFailSelfVerification)
{
    // Servers verify fragments before storing and clients before
    // decoding; a bit-flipped fragment must fail verify().
    ArchiveFixture fx;
    FragmentSet set = fragmentObject(fx.codec, fx.sampleData(512));
    Fragment forged = set.fragments[0];
    forged.data = withByteFlipped(forged.data, 0, 1);
    EXPECT_FALSE(forged.verify());
    EXPECT_TRUE(set.fragments[0].verify());
}

// --- adversarial corruption & the sampled audit -----------------------

TEST(ArchiveTest, CorruptionIsPrivate)
{
    // A stored fragment shares its bytes with every copy of it, so
    // corrupting the holder's copy must not reach a copy made before.
    ArchiveFixture fx;
    Bytes data = fx.sampleData(4096);
    Guid archive = fx.sys->disperse(fx.codec, data, 0);
    fx.sim.runUntil(10.0);

    // Re-store index 3 from a local set (the codec is deterministic,
    // so it is the same fragment), then corrupt the holder's copy.
    FragmentSet set = fragmentObject(fx.codec, data);
    ASSERT_EQ(set.archiveGuid, archive);
    Fragment mine = set.fragments[3];
    std::size_t holder = fx.sys->size();
    for (std::size_t s = 0; s < fx.sys->size(); s++) {
        if (fx.sys->server(s).holds(archive, 3))
            holder = s;
    }
    ASSERT_LT(holder, fx.sys->size());
    fx.sys->server(holder).storeFragment(mine);

    ASSERT_TRUE(fx.sys->corruptFragment(archive, 3));
    EXPECT_EQ(fx.sys->corruptedFragments(), 1u);
    EXPECT_TRUE(mine.verify());
    EXPECT_TRUE(set.fragments[3].verify());

    Rng adversary(7);
    EXPECT_GT(fx.sys->corruptServer(holder, adversary), 0u);
    EXPECT_TRUE(mine.verify());
}

TEST(ArchiveTest, CorruptServerDrawsInArchiveIndexOrder)
{
    // The log orders a server's keys as strings ("/10" before "/2");
    // the adversary's seeded draws still run in (archive, index)
    // order, so a seed corrupts the same fragments it always did.
    ArchiveFixture fx;
    FragmentSet set = fragmentObject(fx.codec, fx.sampleData(2048));
    ArchivalServer &srv = fx.sys->server(0);
    for (const Fragment &f : set.fragments)
        ASSERT_TRUE(srv.storeFragment(f));

    Rng expected(11), adversary(11);
    std::vector<bool> drawn;
    for (std::size_t i = 0; i < set.fragments.size(); i++)
        drawn.push_back(expected.chance(0.5));
    fx.sys->corruptServer(0, adversary, 0.5);
    for (std::uint32_t i = 0; i < set.fragments.size(); i++) {
        auto f = srv.fragment(set.archiveGuid, i);
        ASSERT_TRUE(f.has_value()) << i;
        EXPECT_EQ(!f->verify(), drawn[i]) << "fragment " << i;
    }
}

TEST(ArchiveAudit, CorruptFragmentDetectedAndRepaired)
{
    ArchiveFixture fx;
    Bytes data = fx.sampleData(4096);
    Guid archive = fx.sys->disperse(fx.codec, data, 0);
    fx.sim.runUntil(10.0);

    ASSERT_TRUE(fx.sys->corruptFragment(archive, 3));
    EXPECT_EQ(fx.sys->corruptedFragments(), 1u);

    // Sampling is uniform over 16 fragments, 8 draws per sweep: a few
    // sweeps must hit the corrupt one and restore it in place.
    for (int sweep = 0; sweep < 64 && fx.sys->corruptedFragments() > 0;
         sweep++) {
        fx.sys->auditSweep();
        fx.sim.runUntil(fx.sim.now() + 1.0);
    }
    EXPECT_EQ(fx.sys->corruptedFragments(), 0u);
    EXPECT_GE(fx.sys->auditMismatches(), 1u);
    EXPECT_GE(fx.sys->auditRepairs(), 1u);

    auto res = fx.reconstruct(archive, 60.0);
    ASSERT_TRUE(res.has_value());
    EXPECT_TRUE(res->success);
    EXPECT_EQ(res->data, data);
}

TEST(ArchiveAudit, RehomesOnDistinctFreshServers)
{
    ArchiveFixture fx;
    Bytes data = fx.sampleData(4096);
    Guid archive = fx.sys->disperse(fx.codec, data, 0);
    fx.sim.runUntil(10.0);
    const std::set<std::size_t> old_holders = fx.holderSet();
    const std::vector<std::uint32_t> lost = fx.downHolders(archive, 4);
    ASSERT_EQ(lost.size(), 4u);

    for (int sweep = 0;
         sweep < 64 && fx.sys->survivingFragments(archive) < 16; sweep++) {
        fx.sys->auditSweep();
        fx.sim.runUntil(fx.sim.now() + 11.0);
    }
    EXPECT_EQ(fx.sys->survivingFragments(archive), 16u);
    EXPECT_EQ(fx.sys->auditRepairs(), 4u);
    // Each audit repair re-homes one index, yet the four land in four
    // domains, as the sweep's do.
    std::set<unsigned> domains;
    for (std::size_t home : fx.expectRehomedApart(archive, lost, old_holders))
        domains.insert(fx.sys->server(home).domain());
    EXPECT_EQ(domains.size(), 4u);
    auto res = fx.reconstruct(archive, 60.0);
    ASSERT_TRUE(res && res->success);
    EXPECT_EQ(res->data, data);
}

TEST(ArchiveAudit, RefusedFragmentIsNotARepair)
{
    ArchiveFixture fx;
    Guid archive = fx.sys->disperse(fx.codec, fx.sampleData(4096), 0);
    fx.sim.runUntil(10.0);
    const std::set<std::size_t> old_holders = fx.holderSet();
    ASSERT_EQ(fx.downHolders(archive, 1).size(), 1u);
    fx.fillDisksExcept(old_holders);

    for (int sweep = 0; sweep < 16; sweep++) {
        fx.sys->auditSweep();
        fx.sim.runUntil(fx.sim.now() + 11.0);
    }
    EXPECT_GT(fx.sys->auditMismatches(), 0u);
    EXPECT_EQ(fx.sys->auditRepairs(), 0u);
    EXPECT_EQ(fx.sys->survivingFragments(archive), 15u);
}

TEST(ArchiveAudit, WindowBudgetCapsSampling)
{
    ArchiveConfig cfg;
    cfg.audit.samplesPerSweep = 8;
    cfg.audit.windowBudget = 10;
    cfg.audit.budgetWindow = 100.0; // sweeps land in one window
    ArchiveFixture fx(40, cfg);
    fx.sys->disperse(fx.codec, fx.sampleData(2048), 0);
    fx.sim.runUntil(10.0);

    ArchivalSystem::AuditReport first = fx.sys->auditSweep();
    EXPECT_EQ(first.sampled, 8u);
    EXPECT_EQ(first.deferred, 0u);

    // The second sweep exhausts the window after 2 more samples; the
    // remaining 6 draws are deferred, never silently dropped.
    ArchivalSystem::AuditReport second = fx.sys->auditSweep();
    EXPECT_EQ(second.sampled, 2u);
    EXPECT_EQ(second.deferred, 6u);
    EXPECT_LE(fx.sys->auditWindowPeak(), 10u);

    // A third sweep in the same window defers everything...
    ArchivalSystem::AuditReport third = fx.sys->auditSweep();
    EXPECT_EQ(third.sampled, 0u);
    EXPECT_EQ(third.deferred, 8u);

    // ...and the budget replenishes once the window rolls over.
    fx.sim.runUntil(fx.sim.now() + 150.0);
    ArchivalSystem::AuditReport later = fx.sys->auditSweep();
    EXPECT_EQ(later.sampled, 8u);
    EXPECT_LE(fx.sys->auditWindowPeak(), 10u);
}

TEST(ArchiveAudit, PeriodicAuditRepairsServerCorruption)
{
    ArchiveConfig cfg;
    cfg.audit.sweepPeriod = 1.0;
    ArchiveFixture fx(40, cfg);
    Bytes data = fx.sampleData(4096);
    Guid archive = fx.sys->disperse(fx.codec, data, 0);
    fx.sim.runUntil(10.0);

    // A seeded adversary corrupts every fragment stored on 4 of the
    // 40 servers — at most 4 of the archive's 16 fragments, well
    // under the 8-erasure tolerance of the (8, 16) code.
    Rng adversary(0xbad);
    unsigned flipped = 0;
    for (std::size_t s = 0; s < 4; s++)
        flipped += fx.sys->corruptServer(s, adversary);
    ASSERT_EQ(fx.sys->corruptedFragments(), flipped);

    fx.sys->startAudit();
    fx.sys->startAudit(); // idempotent
    fx.sim.runUntil(fx.sim.now() + 120.0);
    fx.sys->stopAudit();

    EXPECT_EQ(fx.sys->corruptedFragments(), 0u);
    EXPECT_GE(fx.sys->auditSweeps(), 100u);
    EXPECT_EQ(fx.sys->auditRepairs(), flipped);

    auto res = fx.reconstruct(archive, 60.0);
    ASSERT_TRUE(res.has_value());
    EXPECT_TRUE(res->success);
    EXPECT_EQ(res->data, data);
}

TEST(ArchiveAudit, CorruptedServingWithoutAuditUpToThreshold)
{
    // Satellite invariant: with the audit off, reads survive up to
    // n - k corrupted fragments via erasure reconstruction...
    ArchiveFixture fx;
    Bytes data = fx.sampleData(4096);
    Guid archive = fx.sys->disperse(fx.codec, data, 0);
    fx.sim.runUntil(10.0);

    for (std::uint32_t i = 0; i < 8; i++)
        ASSERT_TRUE(fx.sys->corruptFragment(archive, i));

    auto res = fx.reconstruct(archive, 60.0);
    ASSERT_TRUE(res.has_value());
    EXPECT_TRUE(res->success);
    EXPECT_EQ(res->data, data);
}

TEST(ArchiveAudit, CorruptedServingPastThresholdFailsLoudly)
{
    // ...and past the threshold the read *fails* — corrupt fragments
    // are discarded by client-side verification, never decoded into
    // silently wrong bytes.
    ArchiveFixture fx;
    Bytes data = fx.sampleData(4096);
    Guid archive = fx.sys->disperse(fx.codec, data, 0);
    fx.sim.runUntil(10.0);

    for (std::uint32_t i = 0; i < 9; i++)
        ASSERT_TRUE(fx.sys->corruptFragment(archive, i));

    auto res = fx.reconstruct(archive, 60.0);
    ASSERT_TRUE(res.has_value());
    EXPECT_FALSE(res->success);
    EXPECT_TRUE(res->data.empty());

    // The audit can still dig the archive out afterwards: only 7
    // verified fragments survive, below k = 8, so repair must fail
    // for those draws — but repairs of single fragments need k
    // survivors too, so corruption past n - k is permanent.
    for (int sweep = 0; sweep < 32; sweep++)
        fx.sys->auditSweep();
    EXPECT_EQ(fx.sys->auditRepairs(), 0u);
    EXPECT_GT(fx.sys->auditMismatches(), 0u);
}

TEST(ArchiveAudit, AuditSamplingIsDeterministic)
{
    auto runOnce = []() {
        ArchiveFixture fx;
        Guid archive = fx.sys->disperse(fx.codec, Bytes(1024, 7), 0);
        fx.sim.runUntil(10.0);
        fx.sys->corruptFragment(archive, 5);
        std::uint64_t trace = 0;
        for (int sweep = 0; sweep < 16; sweep++) {
            ArchivalSystem::AuditReport r = fx.sys->auditSweep();
            trace = trace * 1099511628211ull +
                    (r.sampled ^ (r.mismatches << 8) ^
                     (r.repaired << 16));
        }
        return trace;
    };
    EXPECT_EQ(runOnce(), runOnce());
}

} // namespace
} // namespace oceanstore
