/** @file End-to-end universe tests: the full update/read paths. */

#include <algorithm>
#include <atomic>
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
