/**
 * @file
 * Durable storage engine suite (DESIGN.md section 14).
 *
 * Unit level: the append-only LogStore's crash contract — torn tails
 * truncated, checksum-corrupt records rejected loudly, replay
 * idempotent, ENOSPC refusing writes while reads keep serving, and a
 * 16-seed determinism sweep over adversarial crash plans.
 *
 * Decoder level: a stored fragment, the record every fragment
 * request decodes, is rejected (never over-allocated) when truncated
 * or when its proof step count is inflated.
 *
 * System level: a core::Universe serves a crashed secondary server's
 * archival fragments from its replayed log and refuses a rotted or
 * disk-refused one, recovers its mesh pointers from the log, a
 * crashed primary replica's object state from its "ulog/" commit log,
 * and a server whose disk was lost comes back empty and is repaired
 * from the archive's redundancy; the churn injector's mass helpers
 * route node transitions through the storage lifecycle symmetrically.
 */

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/universe.h"
#include "erasure/fragment.h"
#include "erasure/reed_solomon.h"
#include "obs/metrics.h"
#include "sim/churn.h"
#include "storage/disk.h"
#include "storage/fault.h"
#include "storage/log_store.h"
#include "storage/node_storage.h"
#include "util/random.h"
#include "workload/driver.h"

namespace oceanstore {
namespace {

/** Frame length of one log record (mirrors the LogStore layout). */
std::size_t
frameLen(const std::string &key, std::size_t value_len)
{
    return 13 + key.size() + value_len;
}

Bytes
patternValue(std::size_t n, std::uint8_t base)
{
    Bytes v(n);
    for (std::size_t i = 0; i < n; i++)
        v[i] = static_cast<std::uint8_t>(base + i);
    return v;
}

/** Everything a scan sees, for whole-index comparisons. */
std::map<std::string, Bytes>
snapshot(LogStore &b)
{
    std::map<std::string, Bytes> out;
    b.scan("", [&](const std::string &k, const Bytes &v) { out[k] = v; });
    return out;
}

// --- LogStore unit level ----------------------------------------------

TEST(LogStore, RoundTripOverwriteEraseScan)
{
    DiskImage disk;
    LogStore store(disk, nullptr);

    EXPECT_EQ(store.put("a", patternValue(8, 1)), StorageStatus::Ok);
    EXPECT_EQ(store.put("b", patternValue(8, 2)), StorageStatus::Ok);
    EXPECT_EQ(store.put("a", patternValue(8, 3)), StorageStatus::Ok);
    EXPECT_EQ(store.keyCount(), 2u);

    auto got = store.get("a");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, patternValue(8, 3)); // latest record wins

    EXPECT_TRUE(store.erase("b"));
    EXPECT_FALSE(store.erase("b")); // already gone
    EXPECT_FALSE(store.get("b").has_value());
    EXPECT_EQ(store.keyCount(), 1u);

    // The log keeps every superseded record and the tombstone.
    EXPECT_EQ(store.logBytes(),
              2 * frameLen("a", 8) + frameLen("b", 8) + frameLen("b", 0));

    auto snap = snapshot(store);
    EXPECT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap["a"], patternValue(8, 3));
}

TEST(LogStore, EmptyLogRecoversToEmpty)
{
    DiskImage disk;
    LogStore store(disk, nullptr);
    EXPECT_EQ(store.recovery().recordsReplayed, 0u);
    EXPECT_EQ(store.recovery().tornBytesTruncated, 0u);
    EXPECT_EQ(store.recovery().crcRejects, 0u);
    EXPECT_EQ(store.keyCount(), 0u);
    EXPECT_FALSE(store.get("anything").has_value());
}

TEST(LogStore, SingleTornRecordTruncated)
{
    DiskImage disk;
    {
        LogStore store(disk, nullptr);
        store.put("k1", patternValue(16, 1));
        store.put("k2", patternValue(16, 2));
    }
    // Cut the last record in half: a torn write, not corruption.
    std::uint64_t cut = frameLen("k2", 16) / 2;
    disk.bytes.resize(disk.bytes.size() - cut);
    if (disk.synced > disk.size())
        disk.synced = disk.size();

    LogStore recovered(disk, nullptr);
    EXPECT_EQ(recovered.recovery().recordsReplayed, 1u);
    EXPECT_EQ(recovered.recovery().tornBytesTruncated,
              frameLen("k2", 16) - cut);
    EXPECT_EQ(recovered.recovery().crcRejects, 0u);
    EXPECT_TRUE(recovered.get("k1").has_value());
    EXPECT_FALSE(recovered.get("k2").has_value());
    // The tail was physically truncated, so the log appends cleanly.
    EXPECT_EQ(recovered.put("k3", patternValue(4, 3)),
              StorageStatus::Ok);
    EXPECT_TRUE(recovered.get("k3").has_value());
}

TEST(LogStore, CorruptCrcMidLogRejectedLoudly)
{
    DiskImage disk;
    {
        LogStore store(disk, nullptr);
        store.put("aa", patternValue(16, 1));
        store.put("bb", patternValue(16, 2));
        store.put("cc", patternValue(16, 3));
    }
    // Flip one value byte inside the MIDDLE record: a structurally
    // sane frame with a bad checksum.
    std::uint64_t off = frameLen("aa", 16) + 13 + 2; // bb's value[0]
    disk.bytes[off] ^= 0xff;

    LogStore recovered(disk, nullptr);
    EXPECT_EQ(recovered.recovery().crcRejects, 1u);
    EXPECT_EQ(recovered.recovery().recordsReplayed, 2u);
    EXPECT_EQ(recovered.recovery().tornBytesTruncated, 0u);
    EXPECT_TRUE(recovered.get("aa").has_value());
    EXPECT_FALSE(recovered.get("bb").has_value()); // rejected, not served
    EXPECT_TRUE(recovered.get("cc").has_value());  // replay resynced
}

TEST(LogStore, ReplayIsIdempotent)
{
    DiskImage disk;
    {
        LogStore store(disk, nullptr);
        for (int i = 0; i < 20; i++)
            store.put("key" + std::to_string(i % 7),
                      patternValue(24, static_cast<std::uint8_t>(i)));
        store.erase("key3");
    }
    // Damage the image both ways, then recover twice.
    disk.bytes[frameLen("key0", 24) + 20] ^= 0x10; // corrupt record 2
    disk.bytes.resize(disk.bytes.size() - 5);      // tear the tail
    if (disk.synced > disk.size())
        disk.synced = disk.size();
    Bytes imageAfterFirst;
    RecoveryReport first;
    std::map<std::string, Bytes> firstSnap;
    {
        LogStore r1(disk, nullptr);
        first = r1.recovery();
        firstSnap = snapshot(r1);
        imageAfterFirst = disk.bytes;
    }
    LogStore r2(disk, nullptr);
    EXPECT_EQ(r2.recovery().recordsReplayed, first.recordsReplayed);
    EXPECT_EQ(r2.recovery().crcRejects, first.crcRejects);
    // The first replay already truncated the torn tail; the second
    // finds a clean log.
    EXPECT_EQ(r2.recovery().tornBytesTruncated, 0u);
    EXPECT_EQ(disk.bytes, imageAfterFirst);
    EXPECT_EQ(snapshot(r2), firstSnap);
}

TEST(LogStore, EnospcRefusesWritesKeepsServingReads)
{
    DiskImage disk;
    disk.capacity = 64;
    LogStore store(disk, nullptr);

    ASSERT_EQ(store.put("k", patternValue(20, 1)),
              StorageStatus::Ok); // 35-byte frame fits
    EXPECT_EQ(store.put("l", patternValue(20, 2)),
              StorageStatus::NoSpace); // would need 70 > 64
    EXPECT_EQ(store.stats().enospcErrors, 1u);

    // Reads keep serving; the store did not wedge.
    auto got = store.get("k");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, patternValue(20, 1));
    EXPECT_FALSE(store.get("l").has_value());
    // A smaller record still fits in the remaining capacity.
    EXPECT_EQ(store.put("m", patternValue(4, 3)), StorageStatus::Ok);
}

TEST(LogStore, ServeTimeCrcVerificationWithholdsRotted)
{
    DiskImage disk;
    LogStore store(disk, nullptr);
    store.put("frag", patternValue(32, 1));
    store.put("ok", patternValue(8, 2));

    // Media rot after recovery: flip a bit in frag's value in place.
    disk.bytes[13 + 4 + 5] ^= 0x01;

    EXPECT_FALSE(store.get("frag").has_value());
    EXPECT_GE(store.stats().crcErrors, 1u);
    // scan() skips the rotted record but visits the healthy one.
    auto snap = snapshot(store);
    EXPECT_EQ(snap.count("frag"), 0u);
    EXPECT_EQ(snap.count("ok"), 1u);
}

TEST(LogStore, BitFlipInKeyOrValueRejectsExactlyThatRecord)
{
    // Twenty records of distinct keys, values from 8 to 711 bytes so
    // both the short-input and the folded checksum paths are hit.
    constexpr int kRecords = 20;
    DiskImage image;
    std::vector<std::string> keys;
    std::vector<Bytes> values;
    std::vector<std::uint64_t> offsets;
    {
        LogStore store(image, nullptr);
        for (int i = 0; i < kRecords; i++) {
            keys.push_back("rec" + std::to_string(i));
            values.push_back(patternValue(8 + 37 * i,
                                          static_cast<std::uint8_t>(i)));
            offsets.push_back(image.size());
            ASSERT_EQ(store.put(keys.back(), values.back()),
                      StorageStatus::Ok);
        }
    }

    Rng rng(0xb17f11b5u);
    for (int trial = 0; trial < 200; trial++) {
        const std::size_t r = rng.below(kRecords);
        const std::uint64_t body = keys[r].size() + values[r].size();
        const std::uint64_t bit = rng.below(body * 8);
        DiskImage rotted = image;
        rotted.bytes[offsets[r] + 13 + bit / 8] ^=
            static_cast<std::uint8_t>(1u << (bit % 8));

        LogStore store(rotted, nullptr);
        const RecoveryReport &rep = store.recovery();
        ASSERT_EQ(rep.crcRejects, 1u) << "record " << r << " bit " << bit;
        EXPECT_EQ(rep.recordsReplayed, kRecords - 1u);
        EXPECT_EQ(rep.tornBytesTruncated, 0u);
        for (std::size_t k = 0; k < keys.size(); k++) {
            auto got = store.get(keys[k]);
            if (k == r) {
                EXPECT_FALSE(got.has_value()) << "rotted " << keys[k];
            } else {
                ASSERT_TRUE(got.has_value()) << "lost " << keys[k];
                EXPECT_EQ(*got, values[k]) << keys[k];
            }
        }
    }
}

TEST(LogStore, RecoveryDeterminismSweep16Seeds)
{
    std::uint64_t tornSeeds = 0;
    for (std::uint64_t seed = 1; seed <= 16; seed++) {
        // Build an image with a synced prefix and an unsynced tail.
        DiskImage image;
        {
            LogStoreConfig cfg;
            cfg.syncEachPut = false;
            LogStore store(image, nullptr, cfg);
            for (int i = 0; i < 6; i++)
                store.put("s" + std::to_string(i),
                          patternValue(32, static_cast<std::uint8_t>(i)));
            store.sync();
            for (int i = 0; i < 6; i++)
                store.put("u" + std::to_string(i),
                          patternValue(32, static_cast<std::uint8_t>(i)));
        }

        DiskFaultPlan plan;
        plan.tornWriteOnCrash = 0.9;
        plan.bitFlipOnCrash = 0.05;
        plan.seed = seed;

        // Same plan + same image => identical damage and recovery.
        DiskImage a = image, b = image;
        DiskFaultInjector ia(plan), ib(plan);
        auto ra = ia.crash(a);
        auto rb = ib.crash(b);
        EXPECT_EQ(ra.tornBytes, rb.tornBytes) << "seed " << seed;
        EXPECT_EQ(ra.bitFlips, rb.bitFlips) << "seed " << seed;
        ASSERT_EQ(a.bytes, b.bytes) << "seed " << seed;
        tornSeeds += ra.tornBytes > 0 ? 1 : 0;

        LogStore sa(a, nullptr), sb(b, nullptr);
        EXPECT_EQ(sa.recovery().recordsReplayed,
                  sb.recovery().recordsReplayed)
            << "seed " << seed;
        EXPECT_EQ(sa.recovery().tornBytesTruncated,
                  sb.recovery().tornBytesTruncated)
            << "seed " << seed;
        EXPECT_EQ(sa.recovery().crcRejects, sb.recovery().crcRejects)
            << "seed " << seed;
        EXPECT_EQ(snapshot(sa), snapshot(sb)) << "seed " << seed;

        // The synced prefix is sacred: every synced key survives
        // whatever the crash did to the tail.
        for (int i = 0; i < 6; i++) {
            EXPECT_TRUE(sa.get("s" + std::to_string(i)).has_value())
                << "seed " << seed << " lost synced key s" << i;
        }
    }
    // The plan must actually bite on most seeds, or the sweep proves
    // nothing.
    EXPECT_GE(tornSeeds, 8u);
}

/**
 * The index against an ordered model: 16 seeds of random put-new,
 * overwrite, erase and erase-missing operations over keys that share
 * prefixes ("frag/<hex>/1", "/10", "/2"), keys of 0-80 bytes and the
 * empty key, with crash + replay at random points.  After every step
 * lookups, the key count and the scan order match a std::map.
 */
TEST(LogStore, IndexMatchesOrderedModel)
{
    std::vector<std::string> pool{""};
    for (const char *hex : {"00ab", "00ab0", "f3"}) {
        for (const char *idx : {"1", "10", "2", "20", "100"})
            pool.push_back(std::string("frag/") + hex + "/" + idx);
    }
    Rng keys(0x1dc0ffeeu);
    while (pool.size() < 64) {
        std::string k(keys.below(81), 'a');
        for (char &c : k)
            c = "ab/"[keys.below(3)];
        pool.push_back(k);
    }
    const std::vector<std::string> prefixes{"", "a", "ab", "frag/",
                                            "frag/00ab", "frag/00ab/1",
                                            "zz"};

    for (std::uint64_t seed = 1; seed <= 16; seed++) {
        Rng rng(seed);
        NodeStorage ns(StorageSetup{});
        std::map<std::string, Bytes> model;
        auto check = [&](int step) {
            LogStore &store = ns.backend();
            SCOPED_TRACE(testing::Message() << "seed " << seed
                                            << " step " << step);
            ASSERT_EQ(store.keyCount(), model.size());
            for (const std::string &k : pool) {
                auto it = model.find(k);
                ASSERT_EQ(store.contains(k), it != model.end()) << k;
                auto v = store.view(k);
                ASSERT_EQ(v.has_value(), it != model.end()) << k;
                if (v) {
                    EXPECT_TRUE(std::equal(v->begin(), v->end(),
                                           it->second.begin(),
                                           it->second.end()))
                        << k;
                }
            }
            const std::string &prefix = rng.pick(prefixes);
            std::vector<std::string> want, seen;
            for (auto it = model.lower_bound(prefix);
                 it != model.end() && it->first.starts_with(prefix); ++it)
                want.push_back(it->first);
            store.scanKeys(prefix,
                           [&](const std::string &k) { seen.push_back(k); });
            EXPECT_EQ(seen, want) << "prefix '" << prefix << "'";
            EXPECT_EQ(snapshot(store), model);
        };

        for (int step = 0; step < 300; step++) {
            const std::string &key = rng.pick(pool);
            const std::uint64_t op = rng.below(10);
            if (op < 6) {
                Bytes value = patternValue(
                    rng.below(41), static_cast<std::uint8_t>(rng.next()));
                ASSERT_EQ(ns.backend().put(key, value), StorageStatus::Ok);
                model[key] = value;
            } else if (op < 9) {
                EXPECT_EQ(ns.backend().erase(key), model.erase(key) > 0);
            } else {
                ns.crash();
                ns.restart();
                EXPECT_EQ(ns.lastRecovery().liveKeys, model.size());
            }
            check(step);
        }
    }
}

/** Erased keys' arena bytes are reclaimed: 10^5 put/erase cycles
 *  over 100 keys keep the arena near the live key bytes. */
TEST(LogStore, EraseHeavyStoreStaysBounded)
{
    DiskImage disk;
    LogStoreConfig cfg;
    cfg.syncEachPut = false;
    LogStore store(disk, nullptr, cfg);
    std::vector<std::string> keys;
    std::size_t liveBytes = 0;
    for (int i = 0; i < 100; i++) {
        keys.push_back("ptr/" + std::string(40, 'a' + i % 26) + "/" +
                       std::to_string(i));
        ASSERT_EQ(store.put(keys.back(), {}), StorageStatus::Ok);
        liveBytes += keys.back().size();
    }
    std::size_t maxArena = 0;
    for (int i = 0; i < 100000; i++) {
        const std::string &key = keys[i % keys.size()];
        ASSERT_TRUE(store.erase(key));
        ASSERT_EQ(store.put(key, {}), StorageStatus::Ok);
        maxArena = std::max(maxArena, store.keyArenaBytes());
    }
    EXPECT_EQ(store.keyCount(), keys.size());
    EXPECT_LE(maxArena, 3 * liveBytes);
}

// --- NodeStorage ------------------------------------------------------

TEST(NodeStorage, LogKindSurvivesCleanCrash)
{
    NodeStorage ns(StorageSetup{});
    ns.backend().put("x", patternValue(4, 1));
    ns.backend().put("y", patternValue(4, 2));
    ns.crash();
    EXPECT_FALSE(ns.running());
    ns.restart();
    ASSERT_TRUE(ns.running());
    EXPECT_EQ(ns.lastRecovery().recordsReplayed, 2u);
    auto got = ns.backend().get("x");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, patternValue(4, 1));
}

TEST(NodeStorage, LogKindTornCrashKeepsSyncedPrefix)
{
    std::uint64_t tornTotal = 0;
    for (std::uint64_t seed = 1; seed <= 8; seed++) {
        StorageSetup setup;
        setup.syncEachPut = false;
        setup.faults.tornWriteOnCrash = 1.0;
        setup.faults.seed = seed;
        NodeStorage ns(setup);
        ns.backend().put("durable", patternValue(16, 1));
        ns.backend().sync();
        ns.backend().put("volatile", patternValue(16, 2));
        auto report = ns.crash();
        tornTotal += report.tornBytes;
        ns.restart();
        ASSERT_TRUE(ns.backend().get("durable").has_value())
            << "seed " << seed;
    }
    EXPECT_GT(tornTotal, 0u); // at least one seed cut mid-record
}

// --- Stored fragment decoding -----------------------------------------

/**
 * A restart decodes every "frag/" record it replays, and an adversary
 * that controls a server's disk can re-frame any bytes with a valid
 * record checksum.  Every strict prefix of an encoded fragment, and
 * every proof step count the remaining bytes cannot back, must decode
 * to nullopt without sizing anything from the inflated count.
 */
TEST(FragmentDecode, TruncationAndStepInflationRejected)
{
    Rng rng(0xf4a6u);
    ReedSolomonCode code(4, 8);
    for (std::size_t size : {0u, 1u, 97u, 1024u}) {
        Bytes data(size);
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.next());
        FragmentSet set = fragmentObject(code, data);
        const Fragment &frag = set.fragments[rng.below(8)];
        const Bytes raw = frag.serialize();

        auto whole = Fragment::deserialize(raw);
        ASSERT_TRUE(whole.has_value()) << "size " << size;
        EXPECT_EQ(whole->serialize(), raw);
        EXPECT_TRUE(whole->verify());

        for (std::size_t len = 0; len < raw.size(); len++) {
            Bytes cut(raw.begin(), raw.begin() + len);
            EXPECT_FALSE(Fragment::deserialize(cut).has_value())
                << "size " << size << " truncated to " << len;
        }

        // The step count follows the GUID, the index and the data
        // blob; overwrite it with counts larger than the proof.
        const std::size_t at = Guid::numBytes + 4 + 4 + frag.data.size();
        const auto steps = static_cast<std::uint32_t>(frag.proof.size());
        std::vector<std::uint32_t> counts = {steps + 1, 0x00100000u,
                                             0x40000000u, 0xffffffffu};
        for (int i = 0; i < 32; i++) {
            counts.push_back(static_cast<std::uint32_t>(
                rng.between(steps + 1, 0xffffffffll)));
        }
        for (std::uint32_t count : counts) {
            Bytes bad = raw;
            bad[at] = static_cast<std::uint8_t>(count >> 24);
            bad[at + 1] = static_cast<std::uint8_t>(count >> 16);
            bad[at + 2] = static_cast<std::uint8_t>(count >> 8);
            bad[at + 3] = static_cast<std::uint8_t>(count);
            EXPECT_FALSE(Fragment::deserialize(bad).has_value())
                << "size " << size << " step count " << count;
        }
    }
}

// --- Universe integration ---------------------------------------------

UniverseConfig
durableConfig()
{
    UniverseConfig cfg;
    cfg.numServers = 24;
    cfg.archiveOnCommit = false; // explicit archival in tests
    cfg.archiveDataFragments = 4;
    cfg.archiveTotalFragments = 8;
    cfg.initialHosts = 3;
    return cfg;
}

TEST(StorageUniverse, PrimaryUlogReplayRestoresObjectState)
{
    Universe uni(durableConfig());
    KeyPair owner = uni.makeUser();
    ObjectHandle h = uni.createObject(owner, "ulog-doc");
    std::uint64_t ts = 0;
    for (int i = 0; i < 3; i++) {
        WriteResult wr = uni.writeSync(h.makeAppendUpdate(
            patternValue(32, static_cast<std::uint8_t>(i)),
            static_cast<VersionNum>(i), {++ts, 1}));
        ASSERT_TRUE(wr.committed);
    }
    auto before = uni.readVersion(h.guid(), 3);
    ASSERT_TRUE(before.has_value());

    // A "ulog/" key the replica never wrote is skipped on replay.
    runningStore(&uni.primaryStorage(0))->put("ulog/not-a-sequence",
                                              toBytes("junk"));

    uni.crashPrimary(0);
    // The replica's RAM object state died with it.
    EXPECT_FALSE(uni.readVersion(h.guid(), 3).has_value());
    EXPECT_FALSE(uni.primaryStorage(0).running());

    uni.restartPrimary(0);
    ASSERT_TRUE(uni.primaryStorage(0).running());
    auto after = uni.readVersion(h.guid(), 3);
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(after->logicalContent(), before->logicalContent());
    EXPECT_EQ(after->version(), before->version());
    // And the tier still commits new updates after the restart.
    WriteResult wr = uni.writeSync(
        h.makeAppendUpdate(patternValue(8, 9), 3, {++ts, 1}));
    EXPECT_TRUE(wr.committed);
}

TEST(StorageUniverse, ServerRestartRestoresFragmentsAndLocation)
{
    Universe uni(durableConfig());
    KeyPair owner = uni.makeUser();
    ObjectHandle h = uni.createObject(owner, "frag-doc");
    std::uint64_t ts = 0;
    ASSERT_TRUE(
        uni.writeSync(
               h.makeAppendUpdate(patternValue(64, 5), 0, {++ts, 1}))
            .committed);
    Guid archive = uni.archiveObject(h.guid());
    ASSERT_TRUE(archive.valid());
    uni.advance(30.0); // let dispersal land

    // Find a server that persisted fragments.
    std::size_t victim = uni.numServers();
    for (std::size_t i = 0; i < uni.numServers(); i++) {
        if (uni.storageOf(i).backend().keyCount() > 0) {
            victim = i;
            break;
        }
    }
    ASSERT_LT(victim, uni.numServers());
    std::size_t keysBefore = uni.storageOf(victim).backend().keyCount();
    std::size_t fragsBefore =
        uni.archival().server(victim).fragmentCount();

    uni.crashServer(victim);
    EXPECT_FALSE(uni.storageOf(victim).running());
    EXPECT_FALSE(uni.net().isUp(
        uni.secondaryTier().replica(victim).nodeId()));

    uni.restartServer(victim);
    ASSERT_TRUE(uni.storageOf(victim).running());
    EXPECT_EQ(uni.storageOf(victim).backend().keyCount(), keysBefore);
    EXPECT_EQ(uni.archival().server(victim).fragmentCount(),
              fragsBefore);

    // The archive still reconstructs and reads still locate.
    ReconstructResult rr = uni.restoreSync(archive);
    EXPECT_TRUE(rr.success);
    ReadResult read = uni.readSync(victim, h.guid());
    EXPECT_TRUE(read.found);
}

TEST(StorageUniverse, DiskLossRestartsEmptyAndRepairs)
{
    UniverseConfig cfg = durableConfig();
    // Any lost fragment triggers a repair, so one emptied disk
    // degrades every archive it held.
    cfg.archive.repairThreshold = cfg.archiveTotalFragments;
    Universe uni(cfg);
    KeyPair owner = uni.makeUser();
    ObjectHandle h = uni.createObject(owner, "lost-disk-doc");
    std::uint64_t ts = 0;
    for (VersionNum v = 0; v < 3; v++) {
        Bytes text = patternValue(64, static_cast<std::uint8_t>(1 + v));
        ASSERT_TRUE(
            uni.writeSync(h.makeAppendUpdate(text, v, {++ts, 1}))
                .committed);
        ASSERT_TRUE(uni.archiveObject(h.guid()).valid());
        uni.advance(30.0); // let dispersal land
    }
    auto archived = uni.archivedVersions(h.guid());
    ASSERT_EQ(archived.size(), 3u);

    // The victim is the server holding the most fragments.
    std::size_t victim = 0;
    for (std::size_t i = 1; i < uni.numServers(); i++) {
        if (uni.archival().server(i).fragmentCount() >
            uni.archival().server(victim).fragmentCount())
            victim = i;
    }
    ASSERT_GT(uni.archival().server(victim).fragmentCount(), 0u);

    // The disk is lost while the server is down: it restarts over an
    // empty image and reloads nothing.
    uni.crashServer(victim);
    uni.storageOf(victim).disk() = DiskImage{};
    uni.restartServer(victim);
    ASSERT_TRUE(uni.storageOf(victim).running());
    EXPECT_EQ(uni.storageOf(victim).lastRecovery().recordsReplayed, 0u);
    EXPECT_EQ(uni.storageOf(victim).backend().keyCount(), 0u);
    EXPECT_EQ(uni.archival().server(victim).fragmentCount(), 0u);

    unsigned degraded = 0;
    for (const auto &[version, archive] : archived) {
        if (uni.archival().survivingFragments(archive) <
            cfg.archiveTotalFragments)
            degraded++;
    }
    EXPECT_GT(degraded, 0u);
    EXPECT_EQ(uni.archival().repairSweep(), degraded);

    for (const auto &[version, archive] : archived) {
        EXPECT_EQ(uni.archival().survivingFragments(archive),
                  cfg.archiveTotalFragments)
            << "version " << version;
        ReconstructResult rr = uni.restoreSync(archive);
        ASSERT_TRUE(rr.success) << "version " << version;
        auto state = uni.readVersion(h.guid(), version);
        ASSERT_TRUE(state.has_value()) << "version " << version;
        EXPECT_EQ(rr.data, state->serializeState())
            << "version " << version;
    }
}

/** The server holding fragment @p index of @p archive. */
std::size_t
holderOf(Universe &uni, const Guid &archive, std::uint32_t index)
{
    for (std::size_t i = 0; i < uni.numServers(); i++) {
        if (uni.archival().server(i).holds(archive, index))
            return i;
    }
    return uni.numServers();
}

/** Write version 1 of @p h and archive it. */
Guid
archiveFirstVersion(Universe &uni, const ObjectHandle &h)
{
    EXPECT_TRUE(
        uni.writeSync(h.makeAppendUpdate(patternValue(96, 3), 0, {1, 1}))
            .committed);
    Guid archive = uni.archiveObject(h.guid());
    uni.advance(30.0); // let dispersal land
    return archive;
}

TEST(StorageUniverse, RestartServesFragmentsFromTheLog)
{
    UniverseConfig cfg = durableConfig();
    Universe uni(cfg);
    KeyPair owner = uni.makeUser();
    ObjectHandle h = uni.createObject(owner, "log-served-doc");
    Guid archive = archiveFirstVersion(uni, h);
    ASSERT_TRUE(archive.valid());
    ASSERT_EQ(uni.archival().survivingFragments(archive),
              cfg.archiveTotalFragments);

    // Crash and restart the holder of fragment 0: the restart replays
    // its log and reloads nothing, yet the fragment is held again.
    std::size_t victim = holderOf(uni, archive, 0);
    ASSERT_LT(victim, uni.numServers());
    std::size_t held = uni.archival().server(victim).fragmentCount();
    uni.crashServer(victim);
    EXPECT_EQ(uni.archival().server(victim).fragmentCount(), 0u);
    uni.restartServer(victim);
    EXPECT_GT(uni.storageOf(victim).lastRecovery().recordsReplayed, 0u);
    EXPECT_EQ(uni.archival().server(victim).fragmentCount(), held);

    // Leave exactly k holders up, the victim among them: the restore
    // must decode with the victim's fragment, served from its log.
    for (std::uint32_t i = cfg.archiveDataFragments;
         i < cfg.archiveTotalFragments; i++) {
        std::size_t s = holderOf(uni, archive, i);
        ASSERT_LT(s, uni.numServers());
        uni.crashServer(s);
    }
    ASSERT_EQ(uni.archival().survivingFragments(archive),
              cfg.archiveDataFragments);
    ReconstructResult rr = uni.restoreSync(archive);
    ASSERT_TRUE(rr.success);
    auto state = uni.readVersion(h.guid(), 1);
    ASSERT_TRUE(state.has_value());
    EXPECT_EQ(rr.data, state->serializeState());
}

TEST(StorageUniverse, DiskFullRefusesFragments)
{
    UniverseConfig cfg = durableConfig();
    Universe uni(cfg);
    KeyPair owner = uni.makeUser();
    ObjectHandle h = uni.createObject(owner, "full-disk-doc");
    Guid first = archiveFirstVersion(uni, h);
    ASSERT_TRUE(first.valid());

    // Fill the disk of fragment 0's holder.  The next version is
    // dispersed over the same servers (placement depends only on
    // which servers are up), so that holder's disk refuses its copy.
    std::size_t victim = holderOf(uni, first, 0);
    ASSERT_LT(victim, uni.numServers());
    NodeStorage &disk = uni.storageOf(victim);
    disk.disk().capacity = disk.disk().size();
    std::uint64_t refused = disk.backend().stats().enospcErrors;

    std::uint64_t ts = 1;
    ASSERT_TRUE(uni.writeSync(h.makeAppendUpdate(patternValue(96, 4), 1,
                                                 {++ts, 1}))
                    .committed);
    Guid second = uni.archiveObject(h.guid());
    ASSERT_TRUE(second.valid());
    uni.advance(30.0);

    // A refused fragment is simply not held: no RAM copy serves it.
    EXPECT_GT(disk.backend().stats().enospcErrors, refused);
    EXPECT_FALSE(uni.archival().server(victim).holds(second, 0));
    EXPECT_EQ(holderOf(uni, second, 0), uni.numServers());
    EXPECT_EQ(uni.archival().survivingFragments(second),
              cfg.archiveTotalFragments - 1);

    // The audit finds the missing fragment and, since the full disk
    // refuses it, re-homes it on a server holding none of the archive.
    for (int sweep = 0; sweep < 10; sweep++) {
        uni.archival().auditSweep();
        uni.advance(11.0);
    }
    EXPECT_GT(uni.archival().auditMismatches(), 0u);
    EXPECT_GT(uni.archival().auditRepairs(), 0u);
    EXPECT_EQ(uni.archival().survivingFragments(second),
              cfg.archiveTotalFragments);
    std::size_t rehomed = holderOf(uni, second, 0);
    EXPECT_LT(rehomed, uni.numServers());
    EXPECT_NE(rehomed, victim);
    EXPECT_FALSE(uni.archival().server(victim).holds(second, 0));

    // Degraded, not dead: the archive restores from the rest and
    // reads still serve from the floating replicas.
    ReconstructResult rr = uni.restoreSync(second);
    ASSERT_TRUE(rr.success);
    auto state = uni.readVersion(h.guid(), 2);
    ASSERT_TRUE(state.has_value());
    EXPECT_EQ(rr.data, state->serializeState());
    ReadResult read = uni.readSync(victim, h.guid());
    EXPECT_TRUE(read.found);
    EXPECT_EQ(read.version, 2u);
}

TEST(StorageUniverse, RottedFragmentIsNotServed)
{
    UniverseConfig cfg = durableConfig();
    // Request every fragment in the first wave, so the rotted one is
    // requested exactly once.
    cfg.archive.requestOverfactor =
        static_cast<double>(cfg.archiveTotalFragments) /
        cfg.archiveDataFragments;
    Universe uni(cfg);
    KeyPair owner = uni.makeUser();
    ObjectHandle h = uni.createObject(owner, "rotted-doc");
    Guid archive = archiveFirstVersion(uni, h);
    ASSERT_TRUE(archive.valid());

    // Media rot: flip one byte inside the value of fragment 0's record.
    std::size_t victim = holderOf(uni, archive, 0);
    ASSERT_LT(victim, uni.numServers());
    Bytes &image = uni.storageOf(victim).disk().bytes;
    const std::string key = "frag/" + archive.hex() + "/0";
    auto at = std::search(image.rbegin(), image.rend(), key.rbegin(),
                          key.rend());
    ASSERT_NE(at, image.rend());
    std::size_t value_at = static_cast<std::size_t>(image.rend() - at);
    image[value_at + 24] ^= 0x40;

    MetricsRegistry &reg = MetricsRegistry::global();
    std::uint64_t crc_before = reg.counterValue("storage.crc_errors");
    LogStore &store = uni.storageOf(victim).backend();
    std::uint64_t store_before = store.stats().crcErrors;
    ReconstructResult rr = uni.restoreSync(archive);
    EXPECT_EQ(reg.counterValue("storage.crc_errors") - crc_before, 1u);
    EXPECT_EQ(store.stats().crcErrors - store_before, 1u);

    // The other holders carry the restore, byte for byte.
    ASSERT_TRUE(rr.success);
    auto state = uni.readVersion(h.guid(), 1);
    ASSERT_TRUE(state.has_value());
    EXPECT_EQ(rr.data, state->serializeState());
    EXPECT_FALSE(uni.archival().server(victim).fragment(archive, 0));
}

TEST(StorageUniverse, ReadFallsThroughBloomToMeshWhileHolderDown)
{
    UniverseConfig cfg = durableConfig();
    cfg.initialHosts = 3;
    Universe uni(cfg);
    KeyPair owner = uni.makeUser();
    ObjectHandle h = uni.createObject(owner, "ha-doc");
    std::uint64_t ts = 0;
    ASSERT_TRUE(
        uni.writeSync(
               h.makeAppendUpdate(patternValue(16, 7), 0, {++ts, 1}))
            .committed);
    uni.advance(10.0);

    // Crash one host; a read must never be served by a downed node.
    auto hosts = uni.hosts(h.guid());
    ASSERT_EQ(hosts.size(), 3u);
    uni.crashServer(hosts[0]);
    for (std::size_t from = 0; from < uni.numServers(); from += 5) {
        ReadResult r = uni.readSync(from, h.guid());
        if (r.found) {
            EXPECT_NE(r.servedBy, hosts[0]);
        }
    }
    uni.restartServer(hosts[0]);
}

TEST(StorageUniverse, DiskFullDegradesGracefully)
{
    UniverseConfig cfg = durableConfig();
    cfg.storage.faults.capacityBytes = 2048; // tiny disks
    Universe uni(cfg);
    KeyPair owner = uni.makeUser();
    ObjectHandle h = uni.createObject(owner, "full-doc");
    std::uint64_t ts = 0;
    for (int i = 0; i < 4; i++) {
        ASSERT_TRUE(uni.writeSync(h.makeAppendUpdate(
                                      patternValue(256, 1),
                                      static_cast<VersionNum>(i),
                                      {++ts, 1}))
                        .committed);
        uni.archiveObject(h.guid());
        uni.advance(20.0);
    }
    std::uint64_t enospc = 0;
    for (std::size_t i = 0; i < uni.numServers(); i++)
        enospc += uni.storageOf(i).backend().stats().enospcErrors;
    for (unsigned r = 0; r < 4; r++)
        enospc += uni.primaryStorage(r).backend().stats().enospcErrors;
    EXPECT_GT(enospc, 0u); // the capacity limit actually bit

    // Degraded, not dead: reads still serve from RAM replicas.
    ReadResult read = uni.readSync(0, h.guid());
    EXPECT_TRUE(read.found);
    EXPECT_EQ(read.version, 4u);
}

TEST(ChurnLifecycle, MassTransitionsRouteThroughStorage)
{
    Universe uni(durableConfig());
    ChurnInjector churn(uni.sim(), uni.net(), {});
    churn.lifecycle = &uni;

    std::vector<NodeId> nodes;
    for (std::size_t i = 0; i < uni.numServers(); i++)
        nodes.push_back(uni.secondaryTier().replica(i).nodeId());

    unsigned crashes = 0, recoveries = 0;
    churn.onCrash = [&](NodeId) { crashes++; };
    churn.onRecover = [&](NodeId) { recoveries++; };

    auto downed = churn.massFailure(nodes, 0.25);
    EXPECT_EQ(downed.size(), crashes);
    for (NodeId n : downed) {
        EXPECT_FALSE(uni.net().isUp(n));
        // Symmetry: the node's storage handle died with its links.
        for (std::size_t i = 0; i < uni.numServers(); i++) {
            if (uni.secondaryTier().replica(i).nodeId() == n) {
                EXPECT_FALSE(uni.storageOf(i).running());
            }
        }
    }

    auto recovered = churn.massRecover(nodes);
    EXPECT_EQ(recovered.size(), downed.size());
    EXPECT_EQ(recoveries, recovered.size());
    for (std::size_t i = 0; i < uni.numServers(); i++) {
        EXPECT_TRUE(uni.storageOf(i).running());
        EXPECT_TRUE(
            uni.net().isUp(uni.secondaryTier().replica(i).nodeId()));
    }
}

} // namespace
} // namespace oceanstore
