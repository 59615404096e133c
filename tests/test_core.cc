/** @file End-to-end universe tests: the full update/read paths. */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/universe.h"
#include "obs/metrics.h"

namespace oceanstore {
namespace {

UniverseConfig
smallConfig()
{
    UniverseConfig cfg;
    cfg.numServers = 24;
    cfg.archiveOnCommit = false; // explicit archival in tests
    cfg.archiveDataFragments = 4;
    cfg.archiveTotalFragments = 8;
    cfg.initialHosts = 3;
    return cfg;
}

struct UniverseTest : public ::testing::Test
{
    UniverseTest() : uni(smallConfig()), owner(uni.makeUser()) {}

    Update
    appendText(const ObjectHandle &h, const std::string &text,
               VersionNum expected)
    {
        return h.makeAppendUpdate(toBytes(text), expected,
                                  {++tsc, 1});
    }

    Universe uni;
    KeyPair owner;
    std::uint64_t tsc = 0;
};

TEST_F(UniverseTest, CreateObjectPlacesHosts)
{
    ObjectHandle h = uni.createObject(owner, "doc");
    EXPECT_EQ(uni.hosts(h.guid()).size(), 3u);
    EXPECT_TRUE(h.guid().valid());
}

TEST_F(UniverseTest, WriteCommitsAndPropagates)
{
    ObjectHandle h = uni.createObject(owner, "doc");
    WriteResult wr = uni.writeSync(appendText(h, "hello world", 0));
    ASSERT_TRUE(wr.completed);
    EXPECT_TRUE(wr.committed);
    EXPECT_EQ(wr.version, 1u);
    EXPECT_GT(wr.latency, 0.0);

    // Let the dissemination tree finish.
    uni.advance(10.0);
    EXPECT_TRUE(uni.secondaryTier().allCommitted(h.guid(), 1));
}

TEST_F(UniverseTest, HonoursPbftM)
{
    // The primary tier is sized from pbft.m: m = 2 gives 3m + 1 = 7
    // replicas, and a write still commits through them.
    UniverseConfig cfg = smallConfig();
    cfg.pbft.m = 2;
    Universe big(cfg);
    EXPECT_EQ(big.primaryTier().size(), 7u);
    EXPECT_NE(big.statusReport().find("\"primaries\": 7"),
              std::string::npos);

    KeyPair user = big.makeUser();
    ObjectHandle h = big.createObject(user, "doc");
    WriteResult wr = big.writeSync(
        h.makeAppendUpdate(toBytes("seven replicas"), 0, {1, 1}));
    ASSERT_TRUE(wr.completed);
    EXPECT_TRUE(wr.committed);
    EXPECT_EQ(wr.version, 1u);
}

TEST_F(UniverseTest, ReadReturnsDecryptableContent)
{
    ObjectHandle h = uni.createObject(owner, "doc");
    std::string text = "the quick brown fox";
    uni.writeSync(appendText(h, text, 0));
    uni.advance(10.0);

    ReadResult rr = uni.readSync(5, h.guid());
    ASSERT_TRUE(rr.found);
    EXPECT_EQ(rr.version, 1u);
    EXPECT_EQ(toString(h.decryptContent(rr.blocks)), text);
}

TEST_F(UniverseTest, StaleVersionGuardAborts)
{
    ObjectHandle h = uni.createObject(owner, "doc");
    ASSERT_TRUE(uni.writeSync(appendText(h, "v1", 0)).committed);
    // Second write conditioned on the old version must abort.
    WriteResult wr = uni.writeSync(appendText(h, "v2-stale", 0));
    ASSERT_TRUE(wr.completed);
    EXPECT_FALSE(wr.committed);
    EXPECT_EQ(wr.version, 1u);
}

TEST_F(UniverseTest, UnauthorizedWriterRejected)
{
    ObjectHandle h = uni.createObject(owner, "doc");
    KeyPair mallory = uni.makeUser();
    // Mallory signs her own update against the owner's object.
    ObjectHandle forged(mallory, "doc");
    Update u = appendText(h, "legit", 0);
    // Re-sign the owner's update with mallory's key.
    u.writerPublicKey = mallory.publicKey;
    u.signature = KeyRegistry::sign(mallory, u.serializeForSigning());
    WriteResult wr = uni.writeSync(u);
    ASSERT_TRUE(wr.completed);
    EXPECT_FALSE(wr.committed);
}

TEST_F(UniverseTest, GrantedWriterAccepted)
{
    ObjectHandle h = uni.createObject(owner, "doc");
    KeyPair bob = uni.makeUser();
    uni.grantWrite(h, owner, bob.publicKey);

    Update u = appendText(h, "from bob", 0);
    u.writerPublicKey = bob.publicKey;
    u.signature = KeyRegistry::sign(bob, u.serializeForSigning());
    WriteResult wr = uni.writeSync(u);
    EXPECT_TRUE(wr.committed);
}

TEST_F(UniverseTest, TamperedUpdateRejected)
{
    ObjectHandle h = uni.createObject(owner, "doc");
    Update u = appendText(h, "payload", 0);
    u.timestamp.time ^= 1; // invalidates the signature
    WriteResult wr = uni.writeSync(u);
    ASSERT_TRUE(wr.completed);
    EXPECT_FALSE(wr.committed);
}

TEST_F(UniverseTest, RefusedWriteNeverReachesTheTree)
{
    // The tree is fed the update rank 0 applied.  A write the guard
    // refuses, on an object whose last entry committed, must not be
    // pushed down it as that version.
    ObjectHandle h = uni.createObject(owner, "doc");
    ASSERT_TRUE(uni.writeSync(appendText(h, "legit", 0)).committed);
    uni.advance(10.0);

    KeyPair mallory = uni.makeUser();
    Update u = appendText(h, "forged", 1);
    u.writerPublicKey = mallory.publicKey;
    u.signature = KeyRegistry::sign(mallory, u.serializeForSigning());
    const MetricsRegistry &reg = MetricsRegistry::global();
    std::uint64_t injects = reg.counterValue("sec.committed_injects");
    WriteResult wr = uni.writeSync(u);
    ASSERT_TRUE(wr.completed);
    EXPECT_FALSE(wr.committed);
    uni.advance(10.0);
    EXPECT_EQ(reg.counterValue("sec.committed_injects"), injects);
}

TEST_F(UniverseTest, MalformedRequestAbortsOnEveryReplica)
{
    // PBFT orders any client's payload, so bytes that do not decode
    // reach every replica's executor.  Each must abort the request the
    // same way, and nothing may reach the tree.
    ObjectHandle h = uni.createObject(owner, "doc");
    const Bytes signed_wire = appendText(h, "honest", 0).serializeFull();
    Bytes truncated(signed_wire.begin(),
                    signed_wire.begin() + signed_wire.size() / 2);
    Bytes inflated = signed_wire;
    inflated[0] = 0x7f; // the signed body's length now runs off the end

    const MetricsRegistry &reg = MetricsRegistry::global();
    const std::uint64_t injects =
        reg.counterValue("sec.committed_injects");
    const std::uint64_t malformed =
        reg.counterValue("pbft.malformed_requests");
    auto rogue = uni.primaryTier().makeClient(0.4, 0.4, 99);
    for (const Bytes &garbage : {Bytes{1, 2, 3}, truncated, inflated}) {
        std::optional<PbftOutcome> out;
        rogue->submit(garbage, [&](const PbftOutcome &o) { out = o; });
        uni.advance(10.0);
        ASSERT_TRUE(out.has_value());
        ASSERT_TRUE(out->completed);
        ASSERT_FALSE(out->result.empty());
        EXPECT_EQ(out->result[0], 0) << "a malformed request committed";
    }
    const std::uint64_t replicas = uni.primaryTier().size();
    EXPECT_EQ(reg.counterValue("pbft.malformed_requests") - malformed,
              3 * replicas);
    EXPECT_EQ(reg.counterValue("sec.committed_injects"), injects);

    WriteResult wr = uni.writeSync(appendText(h, "honest", 0));
    ASSERT_TRUE(wr.completed);
    EXPECT_TRUE(wr.committed);
    EXPECT_EQ(wr.version, 1u);

    // The garbage sits in the durable update log: a restart replays
    // it through the executor and must abort it again, not throw.
    uni.crashPrimary(0);
    uni.restartPrimary(0);
    EXPECT_EQ(reg.counterValue("pbft.malformed_requests") - malformed,
              3 * replicas + 3);
    wr = uni.writeSync(appendText(h, "after restart", 1));
    ASSERT_TRUE(wr.completed);
    EXPECT_TRUE(wr.committed);
    EXPECT_EQ(wr.version, 2u);
}

TEST_F(UniverseTest, ReadPrefersBloomTier)
{
    ObjectHandle h = uni.createObject(owner, "doc");
    uni.writeSync(appendText(h, "x", 0));
    uni.advance(10.0);

    // Read from a host itself: the probabilistic tier must hit.
    auto host = uni.hosts(h.guid()).front();
    ReadResult rr = uni.readSync(host, h.guid());
    ASSERT_TRUE(rr.found);
    EXPECT_TRUE(rr.viaBloom);
    EXPECT_EQ(rr.servedBy, host);
}

TEST_F(UniverseTest, GlobalTierServesDistantReads)
{
    ObjectHandle h = uni.createObject(owner, "doc");
    uni.writeSync(appendText(h, "x", 0));
    uni.advance(10.0);

    // Some server far from all hosts must still find the object.
    unsigned found = 0;
    for (std::size_t s = 0; s < uni.numServers(); s++) {
        if (uni.readSync(s, h.guid()).found)
            found++;
    }
    EXPECT_EQ(found, uni.numServers());
}

TEST_F(UniverseTest, ArchiveAndRestore)
{
    ObjectHandle h = uni.createObject(owner, "doc");
    std::string text = "deep archival payload";
    uni.writeSync(appendText(h, text, 0));
    Guid archive = uni.archiveObject(h.guid());
    ASSERT_TRUE(archive.valid());
    uni.advance(10.0);

    auto res = uni.restoreSync(archive);
    ASSERT_TRUE(res.success);
    EXPECT_FALSE(res.data.empty());
    EXPECT_EQ(uni.latestArchive(h.guid()), archive);
}

TEST_F(UniverseTest, ArchiveSurvivesDisaster)
{
    ObjectHandle h = uni.createObject(owner, "doc");
    uni.writeSync(appendText(h, "survive me", 0));
    Guid archive = uni.archiveObject(h.guid());
    uni.advance(10.0);

    // A regional disaster: kill 25% of the archival servers.
    Rng rng(3);
    auto &arch = uni.archival();
    for (std::size_t i = 0; i < arch.size(); i++) {
        if (rng.chance(0.25))
            uni.net().setDown(arch.server(i).nodeId());
    }
    auto res = uni.restoreSync(archive);
    EXPECT_TRUE(res.success);
}

TEST_F(UniverseTest, ArchiveWhileOriginServerDown)
{
    // Server 8's archival node is the one nearest the primary tier,
    // the default dispersal origin.  Archiving while it is down must
    // disperse from a live server, so the version stays restorable
    // once the origin is back.
    ObjectHandle h = uni.createObject(owner, "doc");
    uni.writeSync(appendText(h, "archived while origin down", 0));
    uni.crashServer(8);
    Guid archive = uni.archiveObject(h.guid());
    ASSERT_TRUE(archive.valid());
    uni.advance(10.0);
    uni.restartServer(8);

    auto res = uni.restoreSync(archive);
    EXPECT_TRUE(res.success);
}

TEST_F(UniverseTest, ArchiveWithEveryServerDownRecordsNothing)
{
    ObjectHandle h = uni.createObject(owner, "doc");
    uni.writeSync(appendText(h, "nowhere to go", 0));
    for (std::size_t i = 0; i < uni.numServers(); i++)
        uni.crashServer(i);
    EXPECT_FALSE(uni.archiveObject(h.guid()).valid());
    EXPECT_FALSE(uni.latestArchive(h.guid()).valid());
}

TEST_F(UniverseTest, AddRemoveHostUpdatesLocation)
{
    ObjectHandle h = uni.createObject(owner, "doc");
    uni.writeSync(appendText(h, "x", 0));
    uni.advance(5.0);

    auto hosts = uni.hosts(h.guid());
    std::size_t fresh = 0;
    while (std::find(hosts.begin(), hosts.end(), fresh) != hosts.end())
        fresh++;
    uni.addHost(h.guid(), fresh);
    EXPECT_EQ(uni.hosts(h.guid()).size(), 4u);

    ReadResult rr = uni.readSync(fresh, h.guid());
    ASSERT_TRUE(rr.found);
    EXPECT_EQ(rr.servedBy, fresh); // served locally now

    uni.removeHost(h.guid(), fresh);
    EXPECT_EQ(uni.hosts(h.guid()).size(), 3u);
}

TEST_F(UniverseTest, ReadFromDownServerFailsOver)
{
    // A read entered at a crashed server re-homes to the nearest live
    // one instead of querying the dead node's filters and mesh state.
    std::vector<ObjectHandle> docs;
    for (int i = 0; i < 16; i++) {
        docs.push_back(uni.createObject(owner, "doc" + std::to_string(i)));
        ASSERT_TRUE(uni.writeSync(appendText(docs.back(), "x", 0))
                        .committed);
    }
    uni.advance(10.0);

    constexpr std::size_t kDown = 5;
    uni.crashServer(kDown);
    for (const ObjectHandle &h : docs) {
        ReadResult rr = uni.readSync(kDown, h.guid());
        EXPECT_TRUE(rr.found) << h.guid().shortHex();
        EXPECT_NE(rr.servedBy, kDown);
        EXPECT_GT(rr.latency, 0.0);
        EXPECT_LT(rr.latency, 1.0) << "spent a location retry";
    }
    uni.restartServer(kDown);
}

TEST_F(UniverseTest, RestartRepublishesHostedObjects)
{
    std::vector<ObjectHandle> docs;
    for (int i = 0; i < 24; i++)
        docs.push_back(uni.createObject(owner, "doc" + std::to_string(i)));

    // The server hosting the most objects.
    std::map<std::size_t, std::vector<Guid>> hosted;
    for (const ObjectHandle &h : docs)
        for (std::size_t s : uni.hosts(h.guid()))
            hosted[s].push_back(h.guid());
    std::size_t victim = hosted.begin()->first;
    for (const auto &[s, objs] : hosted)
        if (objs.size() > hosted[victim].size())
            victim = s;
    ASSERT_GT(hosted[victim].size(), 1u);

    uni.crashServer(victim);
    MetricsRegistry &reg = MetricsRegistry::global();
    std::uint64_t publishes = reg.counterValue("plaxton.publishes");
    uni.restartServer(victim);
    EXPECT_EQ(reg.counterValue("plaxton.publishes") - publishes,
              hosted[victim].size());

    const NodeId node = uni.secondaryTier().replica(victim).nodeId();
    std::vector<Guid> published = uni.mesh().objectsPublishedBy(node);
    std::sort(published.begin(), published.end());
    std::sort(hosted[victim].begin(), hosted[victim].end());
    EXPECT_EQ(published, hosted[victim]);
    for (const Guid &obj : hosted[victim])
        EXPECT_TRUE(uni.mesh().locate(node, obj).found) << obj.shortHex();
}

TEST_F(UniverseTest, ReplicaManagementCreatesUnderLoad)
{
    ObjectHandle h = uni.createObject(owner, "hot-object");
    uni.writeSync(appendText(h, "x", 0));
    uni.advance(5.0);

    std::size_t before = uni.hosts(h.guid()).size();
    // Hammer the object from everywhere.
    for (int round = 0; round < 10; round++) {
        for (std::size_t s = 0; s < uni.numServers(); s++)
            uni.readSync(s, h.guid());
    }
    auto actions = uni.runReplicaManagementEpoch();
    bool created = false;
    for (const auto &a : actions)
        created |= a.kind == ReplicaAction::Kind::Create;
    EXPECT_TRUE(created);
    EXPECT_GT(uni.hosts(h.guid()).size(), before);
}

TEST_F(UniverseTest, ReplicaManagementRetiresDisused)
{
    ObjectHandle h = uni.createObject(owner, "cold-object");
    uni.writeSync(appendText(h, "x", 0));
    uni.advance(5.0);
    std::size_t before = uni.hosts(h.guid()).size();
    ASSERT_GT(before, 1u);
    // Nobody reads it; one epoch should retire extras down to the
    // floor.
    auto actions = uni.runReplicaManagementEpoch();
    bool retired = false;
    for (const auto &a : actions)
        retired |= a.kind == ReplicaAction::Kind::Retire;
    EXPECT_TRUE(retired);
    EXPECT_LT(uni.hosts(h.guid()).size(), before);
    EXPECT_GE(uni.hosts(h.guid()).size(), 1u);
}

TEST_F(UniverseTest, IntrospectionObservesAccesses)
{
    ObjectHandle a = uni.createObject(owner, "a");
    ObjectHandle b = uni.createObject(owner, "b");
    uni.writeSync(appendText(a, "1", 0));
    uni.writeSync(appendText(b, "2", 0));
    uni.advance(5.0);
    for (int i = 0; i < 8; i++) {
        uni.readSync(0, a.guid());
        uni.readSync(0, b.guid());
    }
    // Cluster recognition sees a and b as related.
    EXPECT_GT(uni.semanticGraph().weight(a.guid(), b.guid()), 0.0);
    // The prefetcher predicts b after a.
    uni.readSync(0, a.guid());
    auto preds = uni.prefetcher().predict();
    ASSERT_FALSE(preds.empty());
    EXPECT_EQ(preds[0], b.guid());
}

// ---------------------------------------------------------------------
// The access window: reads append records, the accessors and the
// replica-management epoch drain them.
// ---------------------------------------------------------------------

/** The replica actions in @p actions of kind @p kind for @p obj. */
std::size_t
countActions(const std::vector<ReplicaAction> &actions,
             ReplicaAction::Kind kind, const Guid &obj)
{
    return static_cast<std::size_t>(
        std::count_if(actions.begin(), actions.end(),
                       [&](const ReplicaAction &a) {
                           return a.kind == kind && a.object == obj;
                       }));
}

TEST(AccessWindow, DrainsBetweenReadsMatchOneDrainAtTheEnd)
{
    // Two identical universes see the same reads.  One drains the
    // window into the analyzers after every read, the other once at
    // the end: each record must reach the analyzers exactly once, in
    // read order, either way.
    auto setUp = [](Universe &u) {
        KeyPair owner = u.makeUser();
        std::vector<Guid> objs;
        for (const char *name : {"a", "b", "c"}) {
            ObjectHandle h = u.createObject(owner, name);
            u.writeSync(h.makeAppendUpdate(toBytes(name), 0, {1, 1}));
            objs.push_back(h.guid());
        }
        u.advance(5.0);
        return objs;
    };
    Universe often(smallConfig());
    Universe once(smallConfig());
    const std::vector<Guid> o = setUp(often);
    ASSERT_EQ(setUp(once), o);

    // a b c repeated, with a stray c after each a in every third round.
    std::vector<std::size_t> pattern;
    for (int round = 0; round < 12; round++) {
        pattern.insert(pattern.end(), {0, 1, 2});
        if (round % 3 == 0)
            pattern.insert(pattern.end(), {0, 2});
    }
    pattern.push_back(0);
    for (std::size_t i : pattern) {
        often.readSync(i % often.numServers(), o[i]);
        often.semanticGraph();
        often.prefetcher();
        once.readSync(i % once.numServers(), o[i]);
    }

    EXPECT_GT(once.semanticGraph().weight(o[0], o[1]), 0.0);
    for (std::size_t x = 0; x < o.size(); x++) {
        for (std::size_t y = 0; y < o.size(); y++) {
            EXPECT_EQ(often.semanticGraph().weight(o[x], o[y]),
                      once.semanticGraph().weight(o[x], o[y]))
                << x << "," << y;
        }
    }
    std::vector<Guid> preds = once.prefetcher().predict();
    ASSERT_FALSE(preds.empty());
    EXPECT_EQ(preds[0], o[1]);
    EXPECT_EQ(often.prefetcher().predict(), preds);
}

TEST_F(UniverseTest, ReplicaManagementCreatesAfterAccessorDrain)
{
    ObjectHandle h = uni.createObject(owner, "hot-object");
    uni.writeSync(appendText(h, "x", 0));
    uni.advance(5.0);

    std::size_t before = uni.hosts(h.guid()).size();
    for (int round = 0; round < 10; round++) {
        for (std::size_t s = 0; s < uni.numServers(); s++)
            uni.readSync(s, h.guid());
    }
    // Feeding the analyzers must not consume the epoch's loads.
    uni.semanticGraph();
    uni.prefetcher();
    auto actions = uni.runReplicaManagementEpoch();
    EXPECT_GT(countActions(actions, ReplicaAction::Kind::Create, h.guid()),
              0u);
    EXPECT_GT(uni.hosts(h.guid()).size(), before);
}

TEST_F(UniverseTest, EpochSeesOnlyTheAccessWindow)
{
    // The same load ReplicaManagementCreatesUnderLoad answers with a
    // new replica, followed by a full window of reads of another
    // object: the epoch then sees the hot object as unread.
    ObjectHandle h = uni.createObject(owner, "hot-object");
    uni.writeSync(appendText(h, "x", 0));
    ObjectHandle other = uni.createObject(owner, "other-object");
    uni.writeSync(appendText(other, "y", 0));
    uni.advance(5.0);
    ASSERT_GT(uni.hosts(h.guid()).size(), 1u);

    for (int round = 0; round < 10; round++) {
        for (std::size_t s = 0; s < uni.numServers(); s++)
            uni.readSync(s, h.guid());
    }
    for (std::size_t i = 0; i < Universe::kAccessWindow; i++)
        uni.readSync(i % uni.numServers(), other.guid());

    auto actions = uni.runReplicaManagementEpoch();
    EXPECT_EQ(countActions(actions, ReplicaAction::Kind::Create, h.guid()),
              0u);
    EXPECT_GT(countActions(actions, ReplicaAction::Kind::Retire, h.guid()),
              0u);
}

TEST_F(UniverseTest, EpochClearsTheWindow)
{
    ObjectHandle h = uni.createObject(owner, "hot-object");
    uni.writeSync(appendText(h, "x", 0));
    uni.advance(5.0);
    for (int round = 0; round < 10; round++) {
        for (std::size_t s = 0; s < uni.numServers(); s++)
            uni.readSync(s, h.guid());
    }
    auto first = uni.runReplicaManagementEpoch();
    ASSERT_GT(countActions(first, ReplicaAction::Kind::Create, h.guid()),
              0u);
    // No reads since: the next epoch sees every replica disused.
    auto second = uni.runReplicaManagementEpoch();
    EXPECT_EQ(countActions(second, ReplicaAction::Kind::Create, h.guid()),
              0u);
    EXPECT_GT(countActions(second, ReplicaAction::Kind::Retire, h.guid()),
              0u);
}

TEST(ThreadedIntrospection, AccessorsWhileReading)
{
    // Client threads read while the main thread drains the window
    // through every introspection entry point.  Only drains write the
    // analyzers, so reading them between drains races with nothing.
    UniverseConfig cfg = smallConfig();
    cfg.runtime = RuntimeKind::Threaded;
    cfg.replicaPolicy.disuseThreshold = 0; // epochs only add replicas
    Universe uni(cfg);
    KeyPair owner = uni.makeUser();
    ObjectHandle a = uni.createObject(owner, "a");
    ObjectHandle b = uni.createObject(owner, "b");
    ASSERT_TRUE(uni.writeSync(a.makeAppendUpdate(toBytes("1"), 0, {1, 1}))
                    .committed);
    ASSERT_TRUE(uni.writeSync(b.makeAppendUpdate(toBytes("2"), 0, {2, 1}))
                    .committed);

    constexpr unsigned kClients = 3;
    constexpr unsigned kRounds = 30;
    std::atomic<unsigned> found{0};
    std::atomic<unsigned> running{kClients};
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; c++) {
        clients.emplace_back([&, c] {
            for (unsigned r = 0; r < kRounds; r++) {
                found += uni.readSync(c, a.guid()).found;
                found += uni.readSync(c, b.guid()).found;
            }
            running--;
        });
    }
    unsigned drains = 0;
    while (running.load() > 0) {
        uni.semanticGraph().weight(a.guid(), b.guid());
        uni.prefetcher().predict();
        uni.runReplicaManagementEpoch();
        drains++;
    }
    for (std::thread &t : clients)
        t.join();

    EXPECT_GT(drains, 0u);
    EXPECT_EQ(found.load(), kClients * kRounds * 2);
    EXPECT_GT(uni.semanticGraph().weight(a.guid(), b.guid()), 0.0);
}

TEST_F(UniverseTest, ReplicaManagementFloatsTowardOwnReaders)
{
    // Two objects share their only host; one is read hard from one
    // corner of the map, the other lightly from the opposite corner.
    // The hot object's new replica must float toward its own readers,
    // not the other object's.
    auto nearest = [&](double x, double y) {
        std::size_t best = 0;
        double best_d = 1e9;
        for (std::size_t i = 0; i < uni.numServers(); i++) {
            NodeId n = uni.secondaryTier().replica(i).nodeId();
            double d = std::hypot(uni.net().xOf(n) - x,
                                  uni.net().yOf(n) - y);
            if (d < best_d) {
                best = i;
                best_d = d;
            }
        }
        return best;
    };
    const std::size_t nearA = nearest(0.0, 0.0);
    const std::size_t nearB = nearest(1.0, 1.0);
    const std::size_t shared = nearest(0.5, 0.5);
    ASSERT_NE(nearA, nearB);

    ObjectHandle x = uni.createObject(owner, "reader-corner-x");
    ObjectHandle y = uni.createObject(owner, "reader-corner-y");
    // Make the hot object the one earlier in GUID order, so a host's
    // one candidate list would be overwritten by the cold object's.
    const ObjectHandle &hot = x.guid() < y.guid() ? x : y;
    const ObjectHandle &cold = x.guid() < y.guid() ? y : x;
    for (const ObjectHandle *h : {&hot, &cold}) {
        uni.addHost(h->guid(), shared);
        for (std::size_t idx : uni.hosts(h->guid()))
            if (idx != shared)
                uni.removeHost(h->guid(), idx);
        ASSERT_EQ(uni.hosts(h->guid()),
                  std::vector<std::size_t>{shared});
    }

    for (int i = 0; i < 150; i++)
        ASSERT_EQ(uni.readSync(nearA, hot.guid()).servedBy, shared);
    for (int i = 0; i < 10; i++)
        ASSERT_EQ(uni.readSync(nearB, cold.guid()).servedBy, shared);

    auto actions = uni.runReplicaManagementEpoch();
    const NodeId readerA = uni.secondaryTier().replica(nearA).nodeId();
    const NodeId readerB = uni.secondaryTier().replica(nearB).nodeId();
    unsigned creates = 0;
    for (const auto &a : actions) {
        if (a.kind != ReplicaAction::Kind::Create)
            continue;
        creates++;
        EXPECT_EQ(a.object, hot.guid());
        EXPECT_LT(uni.rt().latency(a.target, readerA),
                  uni.rt().latency(a.target, readerB))
            << "new replica on node " << a.target
            << " floats toward the other object's readers";
    }
    EXPECT_EQ(creates, 1u);
}

// --- per-object replica sets (DESIGN.md section 23) ----------------------

struct SecondaryMembership : public UniverseTest
{
    /** Replica indices in @p obj's set: the root plus its hosts. */
    std::vector<std::size_t>
    members(const Guid &obj)
    {
        std::vector<std::size_t> out;
        for (std::size_t i = 0; i < uni.numServers(); i++)
            if (uni.secondaryTier().isMember(obj, i))
                out.push_back(i);
        return out;
    }

    /** A server that is neither a host of @p obj nor the root. */
    std::size_t
    nonMember(const Guid &obj)
    {
        for (std::size_t i = uni.numServers() - 1; i > 0; i--)
            if (!uni.secondaryTier().isMember(obj, i))
                return i;
        return 0;
    }

    /** A host of @p obj other than the root. */
    std::size_t
    hostNotRoot(const Guid &obj)
    {
        for (std::size_t idx : uni.hosts(obj))
            if (idx != 0)
                return idx;
        return 0;
    }

    VersionNum
    versionAt(std::size_t i, const Guid &obj)
    {
        return uni.secondaryTier().replica(i).committedVersion(obj);
    }
};

TEST_F(SecondaryMembership, PushReachesOnlyMembers)
{
    ObjectHandle h = uni.createObject(owner, "doc");
    std::vector<std::size_t> expect = uni.hosts(h.guid());
    if (std::find(expect.begin(), expect.end(), 0u) == expect.end())
        expect.insert(expect.begin(), 0);
    ASSERT_EQ(members(h.guid()), expect);
    const DisseminationTree &tree = uni.secondaryTier().treeOf(h.guid());
    const std::uint64_t edges = tree.members().size();
    ASSERT_EQ(edges, expect.size() - 1);

    MetricsRegistry &reg = MetricsRegistry::global();
    std::string text;
    for (VersionNum v = 1; v <= 3; v++) {
        std::uint64_t pushes = reg.counterValue("sec.pushes");
        std::uint64_t acks = reg.counterValue("sec.acks");
        text += "v" + std::to_string(v);
        ASSERT_TRUE(uni.writeSync(appendText(h, "v" + std::to_string(v),
                                             v - 1))
                        .committed);
        uni.advance(10.0);
        // One push per tree edge plus the root's own injection, and
        // one ack per edge: nothing reaches a non-member.
        EXPECT_EQ(reg.counterValue("sec.pushes") - pushes, edges + 1);
        EXPECT_EQ(reg.counterValue("sec.acks") - acks, edges);
    }
    EXPECT_TRUE(uni.secondaryTier().allCommitted(h.guid(), 3));
    for (std::size_t i = 0; i < uni.numServers(); i++) {
        const SecondaryReplica &rep = uni.secondaryTier().replica(i);
        if (uni.secondaryTier().isMember(h.guid(), i)) {
            EXPECT_EQ(rep.committedVersion(h.guid()), 3u) << i;
        } else {
            EXPECT_EQ(rep.committedState(h.guid()), nullptr) << i;
        }
    }
    // A non-member asked for the object answers the shared empty
    // state and still records nothing.
    SecondaryReplica &outsider =
        uni.secondaryTier().replica(nonMember(h.guid()));
    EXPECT_EQ(outsider.committedObject(h.guid()).version(), 0u);
    EXPECT_EQ(outsider.committedState(h.guid()), nullptr);
    EXPECT_EQ(toString(h.decryptContent(uni.readSync(0, h.guid()).blocks)),
              text);
}

TEST_F(SecondaryMembership, CreatedHostCatchesUp)
{
    ObjectHandle h = uni.createObject(owner, "doc");
    for (VersionNum v = 0; v < 3; v++)
        ASSERT_TRUE(
            uni.writeSync(appendText(h, std::string(1, "abc"[v]), v))
                .committed);
    uni.advance(10.0);

    const std::size_t fresh = nonMember(h.guid());
    ASSERT_NE(fresh, 0u);
    uni.addHost(h.guid(), fresh);
    // Published at once, caught up by its fetch: until the reply
    // lands it holds nothing newer.
    EXPECT_TRUE(uni.secondaryTier().isMember(h.guid(), fresh));
    EXPECT_EQ(versionAt(fresh, h.guid()), 0u);
    uni.advance(10.0);
    EXPECT_EQ(versionAt(fresh, h.guid()), 3u);

    // A read entered at the new host is served there, byte-exact.
    ReadResult rr = uni.readSync(fresh, h.guid());
    ASSERT_TRUE(rr.found);
    EXPECT_EQ(rr.servedBy, fresh);
    EXPECT_EQ(rr.version, 3u);
    EXPECT_EQ(toString(h.decryptContent(rr.blocks)), "abc");
    EXPECT_TRUE(uni.secondaryTier().allCommitted(h.guid(), 3));
}

TEST_F(SecondaryMembership, RetiredHostDropsState)
{
    ObjectHandle h = uni.createObject(owner, "doc");
    ASSERT_TRUE(uni.writeSync(appendText(h, "one", 0)).committed);
    uni.advance(10.0);
    const std::size_t victim = hostNotRoot(h.guid());
    ASSERT_NE(victim, 0u);
    ASSERT_EQ(versionAt(victim, h.guid()), 1u);

    // The victim's link is down for the next commit, so its parent
    // arms a retransmit; the victim is retired before it fires.
    const NodeId node = uni.secondaryTier().replica(victim).nodeId();
    const std::uint64_t retransmits = uni.secondaryTier().pushRetransmits();
    uni.net().setDown(node);
    ASSERT_TRUE(uni.writeSync(appendText(h, "two", 1)).committed);
    uni.advance(0.3); // the first push is lost, its retransmit pending
    ASSERT_EQ(uni.secondaryTier().pushRetransmits(), retransmits);
    uni.removeHost(h.guid(), victim);
    uni.net().setUp(node);
    EXPECT_FALSE(uni.secondaryTier().isMember(h.guid(), victim));
    EXPECT_EQ(uni.secondaryTier().replica(victim).committedState(h.guid()),
              nullptr);
    uni.advance(20.0);

    // The retransmit landed on a non-member: acked (so it fired once),
    // not applied.
    EXPECT_EQ(uni.secondaryTier().pushRetransmits() - retransmits, 1u);
    EXPECT_EQ(uni.secondaryTier().replica(victim).committedState(h.guid()),
              nullptr);
    EXPECT_TRUE(uni.secondaryTier().allCommitted(h.guid(), 2));
    for (std::size_t idx : uni.hosts(h.guid())) {
        ReadResult rr = uni.readSync(idx, h.guid());
        EXPECT_EQ(rr.version, 2u);
        EXPECT_EQ(toString(h.decryptContent(rr.blocks)), "onetwo");
    }
}

TEST_F(SecondaryMembership, PointerLeftByRetireIsNotServed)
{
    // A mesh node on a host's publish path is down while the host is
    // retired, so unpublish() cannot clear its pointer; on restart it
    // reloads the pointer from its "ptr/" records.  A read that
    // follows it reaches a live replica outside the set, which holds
    // nothing of the object: that is a miss, never version 0.
    PlaxtonMesh &mesh = uni.mesh();
    auto indexOf = [&](NodeId n) {
        for (std::size_t i = 0; i < uni.numServers(); i++)
            if (uni.secondaryTier().replica(i).nodeId() == n)
                return i;
        return std::size_t{0};
    };
    std::optional<ObjectHandle> h;
    std::size_t victim = 0, relay = 0;
    for (int attempt = 0; attempt < 20 && relay == 0; attempt++) {
        h = uni.createObject(owner, "doc" + std::to_string(attempt));
        std::vector<std::size_t> hosts = uni.hosts(h->guid());
        if (std::find(hosts.begin(), hosts.end(), 0u) != hosts.end())
            continue;
        victim = hosts.front();
        const NodeId vnode = uni.secondaryTier().replica(victim).nodeId();
        for (unsigned s = 0; s < smallConfig().plaxton.numSalts && relay == 0;
             s++) {
            for (NodeId n : mesh.route(vnode, h->guid().withSalt(s)).path) {
                std::size_t i = indexOf(n);
                if (i != 0 && !uni.secondaryTier().isMember(h->guid(), i)) {
                    relay = i;
                    break;
                }
            }
        }
    }
    ASSERT_NE(relay, 0u) << "no publish path crosses a non-member";
    const Guid g = h->guid();
    ASSERT_TRUE(uni.writeSync(appendText(*h, "one", 0)).committed);
    uni.advance(10.0);

    uni.crashServer(relay);
    uni.removeHost(g, victim);
    uni.restartServer(relay);
    // The other hosts are down, so no location tier finds a member.
    std::vector<std::size_t> others = uni.hosts(g);
    for (std::size_t idx : others)
        uni.crashServer(idx);
    const NodeId relayNode = uni.secondaryTier().replica(relay).nodeId();
    const NodeId victimNode = uni.secondaryTier().replica(victim).nodeId();
    LocateResult stale = mesh.locate(relayNode, g);
    ASSERT_TRUE(stale.found);
    ASSERT_EQ(stale.location, victimNode) << "no stale pointer to test";

    ReadResult rr = uni.readSync(relay, g);
    EXPECT_FALSE(rr.found) << "served by " << rr.servedBy << " at version "
                           << rr.version;
    // The read's location retry purged the pointer.
    EXPECT_FALSE(mesh.locate(relayNode, g).found);

    for (std::size_t idx : others)
        uni.restartServer(idx);
    rr = uni.readSync(relay, g);
    ASSERT_TRUE(rr.found);
    EXPECT_TRUE(uni.secondaryTier().isMember(g, rr.servedBy));
    EXPECT_EQ(rr.version, 1u);
    EXPECT_EQ(toString(h->decryptContent(rr.blocks)), "one");
}

TEST_F(SecondaryMembership, HostDownDuringCommitCatchesUp)
{
    ObjectHandle h = uni.createObject(owner, "doc");
    const std::size_t victim = hostNotRoot(h.guid());
    ASSERT_NE(victim, 0u);

    // Down through two commits, long enough that every retransmit to
    // it is spent.
    uni.crashServer(victim);
    ASSERT_TRUE(uni.writeSync(appendText(h, "a", 0)).committed);
    ASSERT_TRUE(uni.writeSync(appendText(h, "b", 1)).committed);
    uni.advance(30.0);
    uni.restartServer(victim);
    EXPECT_EQ(versionAt(victim, h.guid()), 0u);

    // The next push lands behind the gap, and the victim fetches what
    // it missed from its parent.
    ASSERT_TRUE(uni.writeSync(appendText(h, "c", 2)).committed);
    uni.advance(10.0);
    EXPECT_EQ(versionAt(victim, h.guid()), 3u);
    EXPECT_TRUE(uni.secondaryTier().allCommitted(h.guid(), 3));
    ReadResult rr = uni.readSync(victim, h.guid());
    ASSERT_TRUE(rr.found);
    EXPECT_EQ(rr.servedBy, victim);
    EXPECT_EQ(rr.version, 3u);
    EXPECT_EQ(toString(h.decryptContent(rr.blocks)), "abc");
}

TEST_F(SecondaryMembership, ThreadedCreateRetireWhileReading)
{
    // Client threads write and read their own objects while the main
    // thread moves the objects' hosts around.  Every read returns some
    // committed version's exact bytes.
    UniverseConfig cfg = smallConfig();
    cfg.runtime = RuntimeKind::Threaded;
    Universe threaded(cfg);
    Universe &uni = threaded;
    KeyPair owner = uni.makeUser();

    constexpr unsigned kClients = 3;
    constexpr unsigned kRounds = 20;
    std::vector<ObjectHandle> docs;
    for (unsigned c = 0; c < kClients; c++)
        docs.push_back(uni.createObject(owner, "doc" + std::to_string(c)));

    std::atomic<unsigned> bad{0};
    std::atomic<unsigned> ops{0};
    std::atomic<unsigned> running{kClients};
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; c++) {
        clients.emplace_back([&, c] {
            std::vector<std::string> contentAt{""};
            for (unsigned r = 0; r < kRounds; r++) {
                std::string text = std::to_string(c) + ":" +
                                   std::to_string(r) + ";";
                WriteResult wr = uni.writeSync(docs[c].makeAppendUpdate(
                    toBytes(text), r, {r + 1, c + 1}));
                if (!wr.committed || wr.version != r + 1)
                    bad++;
                contentAt.push_back(contentAt.back() + text);
                ReadResult rr =
                    uni.readSync((c * 7 + r) % uni.numServers(),
                                 docs[c].guid());
                if (!rr.found || rr.version >= contentAt.size() ||
                    toString(docs[c].decryptContent(rr.blocks)) !=
                        contentAt[rr.version])
                    bad++;
                ops++;
            }
            running--;
        });
    }
    // One membership move per client round.  The loop thread fires one
    // event per hold and then yields to waiting callers, so a thread
    // that calls execute() back to back starves it; pacing the moves
    // by the clients' progress keeps the backlog bounded (under TSan
    // too).
    Rng rng(0x5e7);
    unsigned moves = 0;
    unsigned seen = 0;
    while (running.load() > 0) {
        if (ops.load() == seen) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            continue;
        }
        seen = ops.load();
        const ObjectHandle &doc = docs[moves % kClients];
        std::size_t idx = 1 + rng.below(uni.numServers() - 1);
        std::vector<std::size_t> hosts = uni.hosts(doc.guid());
        if (std::find(hosts.begin(), hosts.end(), idx) == hosts.end())
            uni.addHost(doc.guid(), idx);
        else if (hosts.size() > 1)
            uni.removeHost(doc.guid(), idx);
        moves++;
    }
    for (std::thread &t : clients)
        t.join();

    EXPECT_GT(moves, 0u);
    EXPECT_EQ(bad.load(), 0u);
    // Every member of every set converges on the last commit.
    for (const ObjectHandle &doc : docs) {
        EXPECT_TRUE(uni.runUntil(
            [&] {
                return uni.secondaryTier().allCommitted(doc.guid(),
                                                        kRounds);
            },
            uni.rt().now() + 30.0))
            << doc.guid().shortHex();
    }
}

TEST_F(UniverseTest, MultipleObjectsIndependentVersions)
{
    ObjectHandle a = uni.createObject(owner, "a");
    ObjectHandle b = uni.createObject(owner, "b");
    uni.writeSync(appendText(a, "1", 0));
    uni.writeSync(appendText(a, "2", 1));
    uni.writeSync(appendText(b, "1", 0));
    uni.advance(10.0);
    EXPECT_EQ(uni.readSync(0, a.guid()).version, 2u);
    EXPECT_EQ(uni.readSync(0, b.guid()).version, 1u);
}

TEST_F(UniverseTest, CiphertextInsertDeleteThroughFullPath)
{
    // Figure 4 end-to-end: insert and delete on ciphertext via the
    // committed path, decrypted correctly by the client.
    UniverseConfig cfg = smallConfig();
    Universe u2(cfg);
    KeyPair user = u2.makeUser();
    ObjectHandle h(user, "doc", 4); // tiny 4-byte blocks
    // Register via createObject to install the ACL and hosts.
    ObjectHandle reg = u2.createObject(user, "doc");
    ASSERT_EQ(reg.guid(), h.guid());

    std::uint64_t ts = 0;
    ASSERT_TRUE(
        u2.writeSync(h.makeAppendUpdate(toBytes("AAAABBBB"), 0,
                                        {++ts, 1}))
            .committed); // two blocks: AAAA BBBB
    ASSERT_TRUE(
        u2.writeSync(h.makeInsertUpdate(1, toBytes("XXXX"), 1,
                                        {++ts, 1}))
            .committed); // AAAA XXXX BBBB
    ASSERT_TRUE(
        u2.writeSync(h.makeDeleteUpdate(2, 2, {++ts, 1}))
            .committed); // AAAA XXXX
    u2.advance(10.0);

    ReadResult rr = u2.readSync(1, h.guid());
    ASSERT_TRUE(rr.found);
    EXPECT_EQ(toString(h.decryptContent(rr.blocks)), "AAAAXXXX");
}

} // namespace
} // namespace oceanstore
