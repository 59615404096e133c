/**
 * @file
 * Chaos invariant suite (DESIGN.md section 10).
 *
 * Every scenario drives a full protocol stack through an adversarial
 * FaultPlan — message drops up to 20%, duplication, delay jitter,
 * partition/heal cycles and crash storms — across a matrix of seeds,
 * and asserts the safety and liveness invariants the paper promises
 * of an infrastructure in "a constant state of flux":
 *
 *  - no committed update is lost (PBFT quorums, reliable tree push);
 *  - location eventually succeeds for objects with live storers;
 *  - every retry loop stays bounded (no retransmit storms);
 *  - runs are bit-for-bit reproducible per seed (trace hashes).
 *
 * When an invariant fails, the failing seed is re-run once under a
 * live Tracer and its span dump + metrics delta are written to
 * OCEANSTORE_CHAOS_DUMP_DIR (or the working directory) as
 * chaos_<scenario>_seed<N>.{trace.jsonl,trace.chrome.json,metrics.json}
 * — determinism guarantees the replay reproduces the failure, so the
 * dump shows the exact causal history behind it (analyze with
 * tools/tracecat).  CI uploads the directory as an artifact.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "archive/archival.h"
#include "consistency/byzantine.h"
#include "consistency/secondary.h"
#include "core/universe.h"
#include "erasure/reed_solomon.h"
#include "introspect/failure_detector.h"
#include "introspect/observation.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plaxton/mesh.h"
#include "runtime/runtime.h"
#include "sim/churn.h"
#include "sim/fault.h"
#include "sim/topology.h"
#include "util/bytes.h"
#include "util/random.h"
#include "workload/driver.h"

namespace oceanstore {
namespace {

/**
 * Re-run a failing seed under tracing and dump spans + metrics for
 * offline analysis.  @p rerun must replay the exact scenario run that
 * failed (same seed); the determinism contract makes the replay
 * reproduce it bit-for-bit, now with causal spans attached.
 */
template <typename Fn>
void
dumpFailingSeed(const std::string &scenario, std::uint64_t seed,
                Fn &&rerun)
{
    const char *env = std::getenv("OCEANSTORE_CHAOS_DUMP_DIR");
    std::string dir = env && *env ? env : ".";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::string base = dir + "/chaos_" + scenario + "_seed" +
                       std::to_string(seed);

    Tracer tracer;
    MetricsSnapshot before = MetricsRegistry::global().snapshot();
    {
        TraceScope scope(tracer);
        rerun();
    }
    dumpSpansJsonl(tracer, base + ".trace.jsonl");
    dumpChromeTrace(tracer, base + ".trace.chrome.json");
    std::ofstream mf(base + ".metrics.json");
    if (mf) {
        MetricsRegistry::global().snapshot().deltaFrom(before).writeJson(
            mf);
        mf << "\n";
    }
    std::fprintf(stderr,
                 "chaos: invariant failure at seed %llu; dumped %s.*\n",
                 static_cast<unsigned long long>(seed), base.c_str());
}

/** FNV-1a over 8-byte words (same discipline as the determinism
 *  sweep): order-sensitive, endian-stable. */
struct TraceHash
{
    std::uint64_t h = 1469598103934665603ull;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; i++) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }

    void
    mixTime(double t)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(t));
        __builtin_memcpy(&bits, &t, sizeof(bits));
        mix(bits);
    }
};

/** Decorrelate a scenario's sub-seeds from the matrix seed. */
std::uint64_t
mixSeed(std::uint64_t base, std::uint64_t seed)
{
    return base ^ (seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull);
}

struct Sink : public SimNode
{
    void handleMessage(const Message &) override {}
};

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

// ---------------------------------------------------------------------------
// Scenario A: PBFT under drops, duplication and a partition/heal cycle.
// ---------------------------------------------------------------------------

struct PbftChaosResult
{
    std::uint64_t hash = 0;
    unsigned completed = 0;
    bool sequencesDistinct = false;
    bool certificatesOk = false;
    std::uint64_t retries = 0;
};

PbftChaosResult
runPbftChaos(std::uint64_t seed)
{
    Simulator sim;
    NetworkConfig ncfg;
    ncfg.jitter = 0.02;
    ncfg.seed = mixSeed(0x6e65u, seed);
    Network net(sim, ncfg);
    KeyRegistry registry;

    const unsigned m = 1, n = 3 * m + 1;
    std::vector<std::pair<double, double>> pos;
    for (unsigned r = 0; r < n; r++) {
        double angle = 6.28318 * r / n;
        pos.emplace_back(0.5 + 0.05 * std::cos(angle),
                         0.5 + 0.05 * std::sin(angle));
    }
    PbftConfig pcfg;
    pcfg.m = m;
    Runtime rt(sim, net);
    PbftCluster cluster(rt, pos, registry, pcfg);
    cluster.executor = [](unsigned, const Bytes &payload, std::uint64_t) {
        return payload;
    };
    auto client = cluster.makeClient(0.3, 0.3, 7);

    // Drop rate sweeps 0..20% across the seed matrix; two of the four
    // replicas are split away mid-run and healed eight seconds later.
    static const double kDrops[] = {0.0, 0.08, 0.15, 0.20};
    FaultPlan plan;
    plan.drop = kDrops[seed % 4];
    plan.duplicate = 0.05;
    plan.delayJitter = 0.05;
    plan.partitions.push_back(
        {6.0, 14.0,
         {cluster.replica(2).nodeId(), cluster.replica(3).nodeId()}});
    plan.seed = mixSeed(0xfa017u, seed);
    FaultInjector inj(sim, net, plan);
    inj.arm();

    const int kUpdates = 6;
    std::vector<PbftOutcome> outcomes;
    for (int i = 0; i < kUpdates; i++) {
        sim.scheduleAt(1.0 + 2.0 * i, [&, i] {
            client->submit(toBytes("chaos-" + std::to_string(i)),
                           [&](const PbftOutcome &o) {
                               outcomes.push_back(o);
                           });
        });
    }
    sim.runUntil(400.0);
    sim.run(); // every retry/grace timer is bounded, so this drains

    PbftChaosResult res;
    res.completed = static_cast<unsigned>(outcomes.size());
    res.retries = client->retryAttempts();

    std::set<std::uint64_t> seqs;
    auto keys = cluster.publicKeys();
    res.certificatesOk = true;
    for (const auto &o : outcomes) {
        seqs.insert(o.sequence);
        if (!o.certificate.verify(registry, keys, m + 1))
            res.certificatesOk = false;
    }
    res.sequencesDistinct = seqs.size() == outcomes.size();

    std::sort(outcomes.begin(), outcomes.end(),
              [](const PbftOutcome &a, const PbftOutcome &b) {
                  return a.sequence < b.sequence;
              });
    TraceHash t;
    t.mix(inj.traceHash());
    t.mix(sim.eventsExecuted());
    t.mix(net.totalMessages());
    for (const auto &o : outcomes) {
        t.mix(o.sequence);
        t.mixTime(o.latency);
    }
    res.hash = t.h;
    return res;
}

TEST(Chaos, PbftCommitsSurviveDropsAndPartition)
{
    // 16 seeds x 2 identical runs: no committed update lost, a total
    // order with no duplicates, offline-verifiable certificates,
    // bounded client retries, reproducible traces.
    std::set<std::uint64_t> distinct;
    bool dumped = false;
    for (std::uint64_t seed = 1; seed <= 16; seed++) {
        PbftChaosResult a = runPbftChaos(seed);
        PbftChaosResult b = runPbftChaos(seed);
        EXPECT_EQ(a.hash, b.hash) << "seed " << seed;
        EXPECT_EQ(a.completed, 6u) << "seed " << seed;
        EXPECT_TRUE(a.sequencesDistinct) << "seed " << seed;
        EXPECT_TRUE(a.certificatesOk) << "seed " << seed;
        // Hard policy bound: 6 requests x (maxAttempts - 1) rebroadcasts.
        EXPECT_LE(a.retries, 60u) << "seed " << seed;
        distinct.insert(a.hash);
        if (::testing::Test::HasFailure() && !dumped) {
            dumped = true;
            dumpFailingSeed("pbft", seed, [&] { runPbftChaos(seed); });
        }
    }
    // Different seeds explore different fault schedules.
    EXPECT_GE(distinct.size(), 14u);
}

// ---------------------------------------------------------------------------
// Scenario B: mesh location + failure detector through a crash storm.
// ---------------------------------------------------------------------------

struct MeshChaosResult
{
    std::uint64_t hash = 0;
    std::size_t downed = 0;
    std::uint64_t suspicions = 0;
    std::uint64_t restores = 0;
    unsigned locatable = 0;   //!< Objects with a mesh-alive storer.
    unsigned located = 0;     //!< ... of which locate() found.
};

MeshChaosResult
runMeshChaos(std::uint64_t seed)
{
    Simulator sim;
    NetworkConfig ncfg;
    ncfg.jitter = 0.01;
    ncfg.seed = mixSeed(0x6e65u, seed);
    Network net(sim, ncfg);

    constexpr std::size_t kNodes = 40;
    Rng rng(mixSeed(0xfeedu, seed));
    auto topo = makeGeometricTopology(kNodes, 3, rng);
    std::vector<Sink> sinks(kNodes);
    std::vector<NodeId> members;
    for (std::size_t i = 0; i < kNodes; i++) {
        members.push_back(net.addNode(&sinks[i], topo.positions[i].first,
                                      topo.positions[i].second));
    }
    Runtime rt(sim, net);
    PlaxtonMesh mesh(rt, members, rng);

    // Publish each object on three storers so a 10% storm rarely
    // wipes out every replica of any one object.
    constexpr unsigned kObjects = 24;
    std::map<Guid, std::vector<NodeId>> storers;
    for (unsigned i = 0; i < kObjects; i++) {
        Guid g = Guid::hashOf("chaos-obj-" + std::to_string(i));
        for (unsigned r = 0; r < 3; r++) {
            NodeId storer = members[(i * 7 + r * 13) % kNodes];
            mesh.publish(g, storer);
            storers[g].push_back(storer);
        }
    }

    FaultPlan plan;
    plan.drop = 0.05;
    plan.duplicate = 0.02;
    plan.delayJitter = 0.02;
    plan.seed = mixSeed(0xfa017u, seed);
    FaultInjector inj(sim, net, plan);
    inj.arm();

    // Observe -> analyze -> repair: suspicion evicts the node from
    // the mesh; every sweep that changes the suspect set runs the
    // analyzer, which repairs routing tables and republishes.
    IntrospectionNode obs("chaos-observer");
    obs.addAnalyzer([&](ObservationDb &) { mesh.repair(); });
    FailureDetectorConfig fcfg;
    fcfg.seed = mixSeed(0xde7ec7u, seed);
    FailureDetector fd(rt, 0.5, 0.5, fcfg);
    fd.monitor(members);
    fd.setObserver(&obs);
    fd.onSuspect = [&](NodeId node) {
        if (mesh.alive(node))
            mesh.removeNode(node);
    };
    fd.start();

    ChurnConfig ccfg;
    ccfg.seed = mixSeed(0x43485255u, seed);
    ChurnInjector churn(sim, net, ccfg);
    std::vector<NodeId> downed;
    sim.scheduleAt(10.0,
                   [&] { downed = churn.massFailure(members, 0.10); });
    sim.scheduleAt(30.0, [&] { churn.massRecover(members); });
    sim.runUntil(45.0);
    fd.stop();
    sim.run();

    MeshChaosResult res;
    res.downed = downed.size();
    res.suspicions = fd.suspicionEvents();
    res.restores = fd.restoreEvents();

    NodeId start = invalidNode;
    for (NodeId node : members) {
        if (mesh.alive(node)) {
            start = node;
            break;
        }
    }
    TraceHash t;
    t.mix(inj.traceHash());
    t.mix(sim.eventsExecuted());
    t.mix(net.totalMessages());
    t.mix(res.suspicions);
    t.mix(res.restores);
    for (const auto &[g, holders] : storers) {
        bool anyAlive = std::any_of(
            holders.begin(), holders.end(),
            [&](NodeId node) { return mesh.alive(node); });
        if (!anyAlive)
            continue;
        res.locatable++;
        auto lr = mesh.locate(start, g);
        if (lr.found)
            res.located++;
        t.mix(lr.found ? 1 : 0);
    }
    res.hash = t.h;
    return res;
}

TEST(Chaos, MeshLocationSurvivesCrashStorm)
{
    std::set<std::uint64_t> distinct;
    bool dumped = false;
    for (std::uint64_t seed = 1; seed <= 8; seed++) {
        MeshChaosResult a = runMeshChaos(seed);
        MeshChaosResult b = runMeshChaos(seed);
        EXPECT_EQ(a.hash, b.hash) << "seed " << seed;
        // Every storm victim was suspected, and restored on recovery.
        EXPECT_GE(a.suspicions, a.downed) << "seed " << seed;
        EXPECT_GE(a.restores, a.downed) << "seed " << seed;
        // Liveness: every object with a mesh-alive storer locates.
        EXPECT_GT(a.locatable, 0u) << "seed " << seed;
        EXPECT_EQ(a.located, a.locatable) << "seed " << seed;
        distinct.insert(a.hash);
        if (::testing::Test::HasFailure() && !dumped) {
            dumped = true;
            dumpFailingSeed("mesh", seed, [&] { runMeshChaos(seed); });
        }
    }
    EXPECT_GE(distinct.size(), 6u);
}

// ---------------------------------------------------------------------------
// Scenario C: archival storage through two crash storms with
// detector-triggered repair sweeps.
// ---------------------------------------------------------------------------

struct ArchiveChaosResult
{
    std::uint64_t hash = 0;
    bool allReconstructed = false;
    bool dataIntact = false;
    bool requestsBounded = false;
    unsigned repairs = 0;
};

ArchiveChaosResult
runArchiveChaos(std::uint64_t seed)
{
    Simulator sim;
    NetworkConfig ncfg;
    ncfg.jitter = 0.01;
    ncfg.seed = mixSeed(0x6e65u, seed);
    Network net(sim, ncfg);
    ReedSolomonCode codec(8, 16);

    constexpr std::size_t kServers = 24;
    Rng rng(mixSeed(0xa5c1u, seed));
    std::vector<std::pair<double, double>> pos;
    std::vector<unsigned> domains;
    for (std::size_t i = 0; i < kServers; i++) {
        pos.emplace_back(rng.uniform(), rng.uniform());
        domains.push_back(static_cast<unsigned>(i % 4));
    }
    ArchiveConfig acfg;
    acfg.repairThreshold = 15; // repair as soon as one fragment dies
    Runtime rt(sim, net);
    ArchivalSystem sys(rt, pos, domains, acfg);
    std::vector<std::unique_ptr<NodeStorage>> disks;
    for (std::size_t i = 0; i < kServers; i++) {
        disks.push_back(std::make_unique<NodeStorage>(StorageSetup{}));
        sys.server(i).attachStorage(disks.back().get());
    }
    auto client = sys.makeClient(0.5, 0.5);

    constexpr unsigned kArchives = 2;
    std::vector<Bytes> data;
    std::vector<Guid> archives;
    for (unsigned j = 0; j < kArchives; j++) {
        Bytes d(2048);
        for (auto &x : d)
            x = static_cast<std::uint8_t>(rng.next());
        data.push_back(d);
        archives.push_back(sys.disperse(codec, d, 0));
    }
    sim.runUntil(3.0); // dispersal lands before faults switch on

    FaultPlan plan;
    plan.drop = 0.15;
    plan.duplicate = 0.05;
    plan.delayJitter = 0.05;
    plan.seed = mixSeed(0xfa017u, seed);
    FaultInjector inj(sim, net, plan);
    inj.arm();

    std::vector<NodeId> ids;
    for (std::size_t i = 0; i < sys.size(); i++)
        ids.push_back(sys.server(i).nodeId());

    ArchiveChaosResult res;
    IntrospectionNode obs("archive-observer");
    obs.addAnalyzer(
        [&](ObservationDb &) { res.repairs += sys.repairSweep(); });
    FailureDetectorConfig fcfg;
    fcfg.seed = mixSeed(0xde7ec7u, seed);
    FailureDetector fd(rt, 0.5, 0.5, fcfg);
    fd.monitor(ids);
    fd.setObserver(&obs);
    fd.start();

    ChurnConfig ccfg;
    ccfg.seed = mixSeed(0x43485255u, seed);
    ChurnInjector churn(sim, net, ccfg);
    sim.scheduleAt(5.0, [&] { churn.massFailure(ids, 0.10); });
    sim.scheduleAt(20.0, [&] { churn.massFailure(ids, 0.10); });
    sim.runUntil(30.0);
    fd.stop();

    std::vector<std::optional<ReconstructResult>> results(kArchives);
    for (unsigned j = 0; j < kArchives; j++) {
        sys.reconstruct(*client, archives[j],
                        [&results, j](const ReconstructResult &r) {
                            results[j] = r;
                        });
    }
    sim.runUntil(sim.now() + 60.0);
    sim.run();

    res.allReconstructed = true;
    res.dataIntact = true;
    res.requestsBounded = true;
    TraceHash t;
    t.mix(inj.traceHash());
    t.mix(sim.eventsExecuted());
    t.mix(net.totalMessages());
    t.mix(res.repairs);
    for (unsigned j = 0; j < kArchives; j++) {
        if (!results[j].has_value() || !results[j]->success) {
            res.allReconstructed = false;
            continue;
        }
        if (results[j]->data != data[j])
            res.dataIntact = false;
        // ceil(1.5 * 8) initial requests plus at most four full
        // escalations over 16 holders.
        if (results[j]->fragmentsRequested > 12u + 4u * 16u)
            res.requestsBounded = false;
        t.mix(results[j]->fragmentsReceived);
        t.mixTime(results[j]->latency);
    }
    res.hash = t.h;
    return res;
}

TEST(Chaos, ArchivesReconstructThroughCrashStorms)
{
    std::set<std::uint64_t> distinct;
    unsigned totalRepairs = 0;
    bool dumped = false;
    for (std::uint64_t seed = 1; seed <= 6; seed++) {
        ArchiveChaosResult a = runArchiveChaos(seed);
        ArchiveChaosResult b = runArchiveChaos(seed);
        EXPECT_EQ(a.hash, b.hash) << "seed " << seed;
        EXPECT_TRUE(a.allReconstructed) << "seed " << seed;
        EXPECT_TRUE(a.dataIntact) << "seed " << seed;
        EXPECT_TRUE(a.requestsBounded) << "seed " << seed;
        totalRepairs += a.repairs;
        distinct.insert(a.hash);
        if (::testing::Test::HasFailure() && !dumped) {
            dumped = true;
            dumpFailingSeed("archive", seed,
                            [&] { runArchiveChaos(seed); });
        }
    }
    // The observe->analyze->repair loop actually fired somewhere in
    // the matrix (storms routinely fell a fragment holder).
    EXPECT_GE(totalRepairs, 1u);
    EXPECT_GE(distinct.size(), 4u);
}

// ---------------------------------------------------------------------------
// Scenario D: reliable dissemination-tree push at 20% message loss.
// ---------------------------------------------------------------------------

struct SecondaryChaosResult
{
    std::uint64_t hash = 0;
    bool allCommitted = false;
    std::uint64_t retransmits = 0;
};

SecondaryChaosResult
runSecondaryChaos(std::uint64_t seed)
{
    Simulator sim;
    NetworkConfig ncfg;
    ncfg.jitter = 0.01;
    ncfg.seed = mixSeed(0x6e65u, seed);
    Network net(sim, ncfg);

    constexpr std::size_t kReplicas = 12;
    Rng rng(mixSeed(0x7eau, seed));
    std::vector<std::pair<double, double>> pos;
    for (std::size_t i = 0; i < kReplicas; i++)
        pos.emplace_back(rng.uniform(), rng.uniform());
    SecondaryConfig scfg;
    scfg.seed = mixSeed(0x5ec0d417u, seed);
    Runtime rt(sim, net);
    SecondaryTier tier(rt, pos, scfg);
    Guid obj = Guid::hashOf("chaos-shared-object");

    FaultPlan plan;
    plan.drop = 0.20;
    plan.duplicate = 0.05;
    plan.delayJitter = 0.02;
    plan.seed = mixSeed(0xfa017u, seed);
    FaultInjector inj(sim, net, plan);
    inj.arm();

    tier.startAntiEntropy();
    constexpr VersionNum kVersions = 5;
    for (VersionNum v = 1; v <= kVersions; v++) {
        sim.scheduleAt(static_cast<double>(v), [&tier, obj, v] {
            tier.injectCommitted(
                appendUpdate(obj, "v" + std::to_string(v),
                             {v, 1}),
                v);
        });
    }
    sim.runUntil(60.0);
    tier.stopAntiEntropy();
    sim.run();

    SecondaryChaosResult res;
    res.allCommitted = tier.allCommitted(obj, kVersions);
    res.retransmits = tier.pushRetransmits();
    TraceHash t;
    t.mix(inj.traceHash());
    t.mix(sim.eventsExecuted());
    t.mix(net.totalMessages());
    t.mix(res.retransmits);
    t.mix(res.allCommitted ? 1 : 0);
    res.hash = t.h;
    return res;
}

TEST(Chaos, CommittedUpdatesSurviveLossyTreePush)
{
    std::set<std::uint64_t> distinct;
    bool dumped = false;
    for (std::uint64_t seed = 1; seed <= 8; seed++) {
        SecondaryChaosResult a = runSecondaryChaos(seed);
        SecondaryChaosResult b = runSecondaryChaos(seed);
        EXPECT_EQ(a.hash, b.hash) << "seed " << seed;
        // Safety: no committed update lost anywhere in the tier.
        EXPECT_TRUE(a.allCommitted) << "seed " << seed;
        // Bounded: 5 updates x 11 tree edges x 3 retransmits max.
        EXPECT_LE(a.retransmits, 165u) << "seed " << seed;
        // At 20% loss the ack machinery is actually exercised.
        EXPECT_GT(a.retransmits, 0u) << "seed " << seed;
        distinct.insert(a.hash);
        if (::testing::Test::HasFailure() && !dumped) {
            dumped = true;
            dumpFailingSeed("secondary", seed,
                            [&] { runSecondaryChaos(seed); });
        }
    }
    EXPECT_GE(distinct.size(), 6u);
}

// ---------------------------------------------------------------------------
// Scenario A on the threaded backend: PBFT drops, duplication and a
// partition/heal cycle against a wall-clock Universe, with the lossy
// tree push behind it.  Interleavings vary run to run, so the test
// asserts the invariants, never a trace hash.
// ---------------------------------------------------------------------------

TEST(Chaos, ThreadedCommitsSurviveDropsAndPartition)
{
    UniverseConfig ucfg;
    ucfg.runtime = RuntimeKind::Threaded;
    ucfg.numServers = 16;
    ucfg.archiveOnCommit = false;
    // Loopback links are two orders of magnitude faster than the
    // sim's WAN; shrink the retry schedules to match.
    ucfg.pbft.clientRetry = RetryPolicy{0.05, 1.5, 0.4, 10, 0.05};
    ucfg.secondary.pushRetry = RetryPolicy{0.02, 2.0, 0.2, 4, 0.1};
    Universe universe(ucfg);
    KeyPair owner = universe.makeUser();
    ObjectHandle doc = universe.createObject(owner, "chaos/threaded");

    // Armed inside execute(): the injector schedules its partition
    // cycle on the simulator, at offsets from the runtime's now().
    std::unique_ptr<FaultInjector> inj;
    universe.rt().execute([&] {
        FaultPlan plan;
        plan.drop = 0.08;
        plan.duplicate = 0.05;
        plan.delayJitter = 0.002;
        double t = universe.rt().now();
        PbftCluster &tier = universe.primaryTier();
        plan.partitions.push_back(
            {t + 0.01, t + 0.3,
             {tier.replica(2).nodeId(), tier.replica(3).nodeId()}});
        inj = std::make_unique<FaultInjector>(universe.sim(),
                                              universe.net(), plan);
        inj->arm();
    });

    // Safety and liveness: every write commits exactly once, in
    // order, through the drops and the partition.  contentAt[v] is
    // the object's plaintext at version v.
    constexpr unsigned kWrites = 6;
    std::vector<std::string> contentAt{""};
    for (unsigned w = 0; w < kWrites; w++) {
        std::string text = "w" + std::to_string(w);
        WriteResult wr = universe.writeSync(doc.makeAppendUpdate(
            toBytes(text), /*expected_version=*/w, Timestamp{w + 1, 1}));
        EXPECT_TRUE(wr.completed && wr.committed) << "write " << w;
        EXPECT_EQ(wr.version, w + 1) << "write " << w;
        contentAt.push_back(contentAt.back() + text);
    }
    // No committed update lost in the tree: every floating replica
    // converges on the version the tree root was handed.  The root
    // hears of a commit only from primary rank 0, and the client
    // returns after m + 1 replies, so when drops leave rank 0 behind
    // on the last write nothing re-sends it; the target is therefore
    // the root's version, not kWrites.
    SecondaryTier &tier = universe.secondaryTier();
    std::vector<std::size_t> hosts = universe.hosts(doc.guid());
    auto versionAt = [&](std::size_t r) {
        return tier.replica(r).committedObject(doc.guid()).version();
    };
    EXPECT_TRUE(universe.runUntil(
        [&] {
            for (std::size_t h : hosts)
                if (versionAt(h) != versionAt(0))
                    return false;
            return versionAt(0) > 0;
        },
        universe.rt().now() + 30.0));
    // A read serves some committed version, byte-exact.
    ReadResult rr = universe.readSync(0, doc.guid());
    EXPECT_TRUE(rr.found);
    EXPECT_LE(rr.version, kWrites);
    if (rr.found && rr.version <= kWrites) {
        EXPECT_EQ(toString(doc.decryptContent(rr.blocks)),
                  contentAt[rr.version]);
    }
    universe.rt().execute([&] {
        EXPECT_GT(inj->dropped(), 0u);
        inj.reset();
    });
}

// ---------------------------------------------------------------------------
// Default-disabled plan: arming an all-zero FaultPlan must not
// disturb the deterministic message stream.
// ---------------------------------------------------------------------------

TEST(Chaos, DisabledFaultPlanLeavesTracesUntouched)
{
    auto run = [](bool with_injector) {
        Simulator sim;
        NetworkConfig ncfg;
        ncfg.jitter = 0.01;
        Network net(sim, ncfg);
        std::vector<std::pair<double, double>> pos;
        Rng rng(0x7ea);
        for (std::size_t i = 0; i < 8; i++)
            pos.emplace_back(rng.uniform(), rng.uniform());
        Runtime rt(sim, net);
        SecondaryTier tier(rt, pos, {});
        Guid obj = Guid::hashOf("noop-plan-object");
        std::unique_ptr<FaultInjector> inj;
        if (with_injector) {
            inj = std::make_unique<FaultInjector>(sim, net, FaultPlan{});
            inj->arm();
        }
        for (VersionNum v = 1; v <= 3; v++)
            tier.injectCommitted(
                appendUpdate(obj, "v" + std::to_string(v), {v, 1}),
                v);
        sim.runUntil(30.0);
        TraceHash t;
        t.mix(sim.eventsExecuted());
        t.mix(net.totalMessages());
        t.mix(tier.allCommitted(obj, 3) ? 1 : 0);
        return t.h;
    };
    EXPECT_EQ(run(false), run(true));
}

// ---------------------------------------------------------------------------
// Scenario F: the Zipf/flash-crowd workload driver under message
// drops — every read byte-verified, writes keep committing through
// the retry machinery, runs reproducible per seed.
// ---------------------------------------------------------------------------

struct WorkloadChaosResult
{
    std::uint64_t hash = 0;
    WorkloadStats stats;
};

WorkloadChaosResult
runWorkloadChaos(std::uint64_t seed)
{
    UniverseConfig ucfg;
    ucfg.numServers = 24;
    ucfg.archiveOnCommit = false;
    ucfg.seed = mixSeed(0x0cea5042u, seed);
    Universe universe(ucfg);

    FaultPlan fplan;
    fplan.drop = 0.05;
    fplan.duplicate = 0.02;
    fplan.delayJitter = 0.05;
    fplan.seed = mixSeed(0xfa017u, seed);
    FaultInjector inj(universe.sim(), universe.net(), fplan);
    inj.arm();

    WorkloadPlan plan;
    plan.numObjects = 5;
    plan.duration = 20.0;
    plan.arrivalRate = 0.4;
    plan.thinkTime = 0.5;
    plan.flash.enabled = true;
    plan.flash.start = 8.0;
    plan.flash.end = 20.0;
    plan.flash.object = 4;
    plan.seed = mixSeed(0x30ad1u, seed);

    WorkloadChaosResult res;
    WorkloadDriver driver(universe, plan);
    res.stats = driver.run();

    TraceHash t;
    t.mix(driver.traceHash());
    t.mix(inj.traceHash());
    t.mix(universe.sim().eventsExecuted());
    res.hash = t.h;
    return res;
}

TEST(Chaos, WorkloadSurvivesLossyNetwork)
{
    std::set<std::uint64_t> distinct;
    bool dumped = false;
    for (std::uint64_t seed = 1; seed <= 6; seed++) {
        WorkloadChaosResult a = runWorkloadChaos(seed);
        WorkloadChaosResult b = runWorkloadChaos(seed);
        EXPECT_EQ(a.hash, b.hash) << "seed " << seed;
        EXPECT_GT(a.stats.sessions, 0u) << "seed " << seed;
        EXPECT_GT(a.stats.reads, 0u) << "seed " << seed;
        // Safety: no read ever returns bytes that differ from the
        // committed append history — even with 5% message loss.
        EXPECT_EQ(a.stats.readMismatches, 0u) << "seed " << seed;
        // Liveness: the retry machinery pushes every append through.
        EXPECT_EQ(a.stats.writeAborts, 0u) << "seed " << seed;
        distinct.insert(a.hash);
        if (::testing::Test::HasFailure() && !dumped) {
            dumped = true;
            dumpFailingSeed("workload", seed,
                            [&] { runWorkloadChaos(seed); });
        }
    }
    EXPECT_GE(distinct.size(), 4u);
}

// ---------------------------------------------------------------------------
// Scenario G: adversarial archival peers under the sampled audit.
// Mid-run, an adversary corrupts the stored fragments of a slice of
// the storage tier; the rate-limited audit repairs everything while
// restore traffic keeps flowing over a lossy network.
// ---------------------------------------------------------------------------

struct AuditChaosResult
{
    std::uint64_t hash = 0;
    unsigned flipped = 0;
    unsigned remaining = 0;
    unsigned windowPeak = 0;
    WorkloadStats stats;
};

AuditChaosResult
runAuditChaos(std::uint64_t seed)
{
    UniverseConfig ucfg;
    ucfg.numServers = 24;
    ucfg.archiveOnCommit = true;
    ucfg.archiveDataFragments = 8;
    ucfg.archiveTotalFragments = 16;
    ucfg.seed = mixSeed(0x0cea5042u, seed);
    ucfg.archive.audit.sweepPeriod = 0.5;
    ucfg.archive.audit.samplesPerSweep = 8;
    ucfg.archive.audit.windowBudget = 64;
    ucfg.archive.audit.budgetWindow = 5.0;
    Universe universe(ucfg);

    FaultPlan fplan;
    fplan.drop = 0.05;
    fplan.delayJitter = 0.05;
    fplan.seed = mixSeed(0xfa017u, seed);
    FaultInjector inj(universe.sim(), universe.net(), fplan);
    inj.arm();

    WorkloadPlan plan;
    plan.numObjects = 4;
    plan.duration = 15.0;
    plan.arrivalRate = 0.4;
    plan.thinkTime = 0.5;
    plan.readFraction = 0.5; // write-heavy: populate the archive
    plan.restoreFraction = 0.3;
    plan.seed = mixSeed(0x30ad1u, seed);

    AuditChaosResult res;
    ArchivalSystem &arch = universe.archival();

    // The adversary strikes mid-run: every fragment stored on three
    // servers is corrupted in place (proofs intact, bytes flipped).
    Rng adversary(mixSeed(0xbadu, seed));
    universe.sim().scheduleAt(10.0, [&]() {
        for (std::size_t s = 0; s < 3; s++)
            res.flipped += arch.corruptServer(s, adversary, 0.8);
        arch.startAudit();
    });

    WorkloadDriver driver(universe, plan);
    res.stats = driver.run();

    // Let the audit finish digging the tier out.
    universe.runUntil([&]() { return arch.corruptedFragments() == 0; },
                      universe.sim().now() + 600.0);
    arch.stopAudit();
    res.remaining = arch.corruptedFragments();
    res.windowPeak = arch.auditWindowPeak();

    TraceHash t;
    t.mix(driver.traceHash());
    t.mix(inj.traceHash());
    t.mix(res.flipped);
    t.mix(arch.auditRepairs());
    t.mix(universe.sim().eventsExecuted());
    res.hash = t.h;
    return res;
}

TEST(Chaos, AuditRepairsAdversarialCorruptionMidWorkload)
{
    std::set<std::uint64_t> distinct;
    unsigned totalFlipped = 0;
    bool dumped = false;
    for (std::uint64_t seed = 1; seed <= 4; seed++) {
        AuditChaosResult a = runAuditChaos(seed);
        AuditChaosResult b = runAuditChaos(seed);
        EXPECT_EQ(a.hash, b.hash) << "seed " << seed;
        // Durability: every corrupted fragment restored.
        EXPECT_EQ(a.remaining, 0u) << "seed " << seed;
        // The rate cap held throughout the attack.
        EXPECT_LE(a.windowPeak, 64u) << "seed " << seed;
        // Reads stayed byte-correct while the tier was corrupt.
        EXPECT_EQ(a.stats.readMismatches, 0u) << "seed " << seed;
        totalFlipped += a.flipped;
        distinct.insert(a.hash);
        if (::testing::Test::HasFailure() && !dumped) {
            dumped = true;
            dumpFailingSeed("audit", seed,
                            [&] { runAuditChaos(seed); });
        }
    }
    // The adversary actually corrupted fragments somewhere.
    EXPECT_GE(totalFlipped, 1u);
    EXPECT_GE(distinct.size(), 3u);
}

// ---------------------------------------------------------------------------
// Scenario H: cold restart mid-workload (DESIGN.md section 14).  A
// storage server dies mid-run under a torn-write + bit-flip disk
// plan, recovers from its append-only log while sessions keep
// flowing, and the run stays byte-correct and bit-for-bit
// reproducible — restart schedule included.
// ---------------------------------------------------------------------------

struct RestartChaosResult
{
    std::uint64_t hash = 0;
    RecoveryReport recovery;
    std::uint64_t diskTornBytes = 0;
    std::uint64_t diskBitFlips = 0;
    unsigned postMismatches = 0; //!< Byte-diffs in post-run reads.
    WorkloadStats stats;
};

RestartChaosResult
runRestartChaos(std::uint64_t seed)
{
    constexpr std::size_t kVictim = 3;

    UniverseConfig ucfg;
    ucfg.numServers = 24;
    ucfg.archiveOnCommit = true;
    ucfg.archiveDataFragments = 4;
    ucfg.archiveTotalFragments = 8;
    ucfg.seed = mixSeed(0x0cea5042u, seed);
    // No per-put fsync: the crash finds a vulnerable unsynced tail,
    // and the plan always tears it and flips bits in what survives.
    ucfg.storage.syncEachPut = false;
    ucfg.storage.faults.tornWriteOnCrash = 1.0;
    ucfg.storage.faults.bitFlipOnCrash = 0.05;
    ucfg.storage.faults.seed = mixSeed(0xd15cu, seed);
    Universe universe(ucfg);

    WorkloadPlan plan;
    plan.numObjects = 5;
    plan.duration = 20.0;
    plan.arrivalRate = 0.4;
    plan.thinkTime = 0.5;
    plan.crashAt = 8.0;
    plan.recoverAt = 14.0;
    plan.crashServerIndex = kVictim;
    plan.seed = mixSeed(0x30ad1u, seed);

    // Periodic fsync, as a real node would: everything written before
    // t=6 becomes the durable prefix, the 6..8s tail is what the
    // crash plan gets to tear and corrupt.
    universe.sim().scheduleAt(6.0, [&universe]() {
        if (universe.storageOf(kVictim).running())
            universe.storageOf(kVictim).backend().sync();
    });

    RestartChaosResult res;
    WorkloadDriver driver(universe, plan);
    res.stats = driver.run();
    res.recovery = universe.storageOf(kVictim).lastRecovery();
    res.diskTornBytes =
        universe.storageOf(kVictim).faults().totalTornBytes();
    res.diskBitFlips =
        universe.storageOf(kVictim).faults().totalBitFlips();

    // Post-run: reads issued *from the restarted server* must still
    // return exactly the committed append prefix.
    for (std::size_t i = 0; i < plan.numObjects; i++) {
        ReadResult r = universe.readSync(kVictim,
                                         driver.handle(i).guid());
        if (!r.found)
            continue;
        Bytes got = driver.handle(i).decryptContent(r.blocks);
        if (got != driver.expectedContent(i, r.version))
            res.postMismatches++;
    }

    TraceHash t;
    t.mix(driver.traceHash());
    t.mix(res.recovery.recordsReplayed);
    t.mix(res.recovery.tornBytesTruncated);
    t.mix(res.recovery.crcRejects);
    t.mix(res.diskTornBytes);
    t.mix(res.diskBitFlips);
    t.mix(res.postMismatches);
    t.mix(universe.sim().eventsExecuted());
    res.hash = t.h;
    return res;
}

TEST(Chaos, ColdRestartMidWorkloadRecovers)
{
    std::set<std::uint64_t> distinct;
    std::uint64_t totalReplayed = 0, totalDamage = 0;
    bool dumped = false;
    for (std::uint64_t seed = 1; seed <= 4; seed++) {
        RestartChaosResult a = runRestartChaos(seed);
        RestartChaosResult b = runRestartChaos(seed);
        // Determinism: the crash, the disk damage, the recovery
        // replay and the surviving schedule are all part of the
        // per-seed contract.
        EXPECT_EQ(a.hash, b.hash) << "seed " << seed;
        EXPECT_GT(a.stats.sessions, 0u) << "seed " << seed;
        // Safety: no read returned wrong bytes during the run...
        EXPECT_EQ(a.stats.readMismatches, 0u) << "seed " << seed;
        // ...nor after it, from the restarted server itself.
        EXPECT_EQ(a.postMismatches, 0u) << "seed " << seed;
        totalReplayed += a.recovery.recordsReplayed;
        totalDamage += a.diskTornBytes + a.diskBitFlips +
                       a.recovery.crcRejects;
        distinct.insert(a.hash);
        if (::testing::Test::HasFailure() && !dumped) {
            dumped = true;
            dumpFailingSeed("restart", seed,
                            [&] { runRestartChaos(seed); });
        }
    }
    // The scenario actually exercised recovery: records were replayed
    // from the damaged logs, and the fault plan drew blood somewhere
    // across the seed matrix.
    EXPECT_GT(totalReplayed, 0u);
    EXPECT_GT(totalDamage, 0u);
    EXPECT_GE(distinct.size(), 3u);
}

// ---------------------------------------------------------------------------
// Scenario H on the threaded backend: a server crashes under a disk
// plan that tears its unsynced tail and flips bits in what survives,
// recovers from its log on restart, and every read and archival
// restore afterwards verifies byte for byte.  Wall-clock interleaving
// varies run to run, so only invariants are asserted.
// ---------------------------------------------------------------------------

TEST(Chaos, ThreadedColdRestartRecovers)
{
    UniverseConfig ucfg;
    ucfg.runtime = RuntimeKind::Threaded;
    ucfg.numServers = 16;
    ucfg.archiveOnCommit = true;
    ucfg.archiveDataFragments = 4;
    ucfg.archiveTotalFragments = 8;
    ucfg.pbft.clientRetry = RetryPolicy{0.05, 1.5, 0.4, 10, 0.05};
    ucfg.secondary.pushRetry = RetryPolicy{0.02, 2.0, 0.2, 4, 0.1};
    ucfg.storage.syncEachPut = false;
    ucfg.storage.faults.tornWriteOnCrash = 1.0;
    ucfg.storage.faults.bitFlipOnCrash = 0.05;
    ucfg.storage.faults.seed = 0xd15c7u;
    Universe universe(ucfg);
    KeyPair owner = universe.makeUser();

    constexpr unsigned kObjects = 3;
    constexpr unsigned kWrites = 4;
    std::vector<ObjectHandle> docs;
    // contentAt[o][v] is object o's plaintext at version v.
    std::vector<std::vector<std::string>> contentAt(kObjects, {""});
    for (unsigned o = 0; o < kObjects; o++) {
        docs.push_back(universe.createObject(
            owner, "chaos/threaded-restart/" + std::to_string(o)));
    }
    auto drain = [&] {
        universe.runUntil(
            [&] {
                RuntimeStats st = universe.rt().stats();
                return st.linkQueuedMessages == 0 &&
                       st.strandQueueDepth == 0;
            },
            universe.rt().now() + 10.0);
    };
    auto writeRound = [&](unsigned w) {
        for (unsigned o = 0; o < kObjects; o++) {
            // A few hundred bytes per append, so the victim's
            // fragment records run the folded checksum path too.
            std::string text = "o" + std::to_string(o) + "w" +
                               std::to_string(w) + ":" +
                               std::string(300, static_cast<char>('a' + w));
            WriteResult wr = universe.writeSync(docs[o].makeAppendUpdate(
                toBytes(text), w, Timestamp{w + 1, 1}));
            ASSERT_TRUE(wr.completed && wr.committed)
                << "object " << o << " write " << w;
            contentAt[o].push_back(contentAt[o].back() + text);
        }
        drain();
    };

    for (unsigned w = 0; w < kWrites / 2; w++)
        writeRound(w);
    // The victim is the server holding the most records; everything
    // so far becomes its durable prefix, the next writes its
    // crash-vulnerable tail.
    std::size_t victim = 0;
    universe.rt().execute([&] {
        for (std::size_t i = 1; i < universe.numServers(); i++) {
            if (universe.storageOf(i).backend().keyCount() >
                universe.storageOf(victim).backend().keyCount())
                victim = i;
        }
        universe.storageOf(victim).backend().sync();
    });
    for (unsigned w = kWrites / 2; w < kWrites; w++)
        writeRound(w);

    universe.crashServer(victim);
    universe.restartServer(victim);
    drain();

    RecoveryReport rec;
    std::uint64_t damage = 0;
    universe.rt().execute([&] {
        rec = universe.storageOf(victim).lastRecovery();
        const DiskFaultInjector &f = universe.storageOf(victim).faults();
        damage = f.totalTornBytes() + f.totalBitFlips();
    });
    EXPECT_GT(rec.recordsReplayed, 0u);
    EXPECT_GT(damage, 0u) << "the crash plan left the disk untouched";

    for (unsigned o = 0; o < kObjects; o++) {
        const Guid g = docs[o].guid();
        // Reads from the restarted server and from a bystander serve
        // a committed version, byte-exact.
        for (std::size_t from :
             {victim, (victim + 1) % universe.numServers()}) {
            ReadResult rr = universe.readSync(from, g);
            ASSERT_TRUE(rr.found) << "object " << o << " from " << from;
            ASSERT_LE(rr.version, kWrites);
            EXPECT_EQ(toString(docs[o].decryptContent(rr.blocks)),
                      contentAt[o][rr.version])
                << "object " << o << " from " << from;
        }
        // Every archived version reconstructs to the committed state.
        auto archived = universe.archivedVersions(g);
        EXPECT_FALSE(archived.empty()) << "object " << o;
        for (const auto &[version, archive] : archived) {
            ReconstructResult res = universe.restoreSync(archive);
            ASSERT_TRUE(res.success)
                << "object " << o << " version " << version;
            auto state = universe.readVersion(g, version);
            ASSERT_TRUE(state.has_value());
            EXPECT_EQ(res.data, state->serializeState())
                << "object " << o << " version " << version;
        }
    }
}

// ---------------------------------------------------------------------------
// Scenario I: per-object replica sets under churn (DESIGN.md section
// 23).  Writes and reads run over a lossy network while hosts crash
// and restart and replica sets gain (Create) and lose (Retire)
// members.  Every read returns some committed version's exact bytes,
// served by a member of the set; after the heal every live member of
// every set holds the root's version, and every read serves it.
// ---------------------------------------------------------------------------

struct MembershipChaosResult
{
    std::uint64_t hash = 0;
    unsigned reads = 0;
    unsigned misses = 0;       //!< Location found no live host.
    unsigned healMisses = 0;   //!< Misses after the heal.
    unsigned badReads = 0;     //!< Not a committed version's bytes,
                               //!< or served by a non-member.
    unsigned staleHealReads = 0; //!< Behind the root after the heal.
    unsigned lostWrites = 0;   //!< Never completed, or not committed.
    unsigned creates = 0;
    unsigned retires = 0;
    unsigned crashes = 0;
    unsigned laggingMembers = 0; //!< After the heal.
    std::uint64_t rootVersions = 0; //!< Summed over the objects.
    std::uint64_t dropped = 0;
};

MembershipChaosResult
runMembershipChaos(std::uint64_t seed)
{
    UniverseConfig ucfg;
    ucfg.numServers = 16;
    ucfg.archiveOnCommit = false;
    ucfg.seed = mixSeed(0x0cea5042u, seed);
    Universe universe(ucfg);
    KeyPair owner = universe.makeUser();

    constexpr std::size_t kObjects = 3;
    std::vector<ObjectHandle> docs;
    // contentAt[o][v]: object o's plaintext at version v.
    std::vector<std::vector<std::string>> contentAt;
    for (std::size_t o = 0; o < kObjects; o++) {
        docs.push_back(universe.createObject(
            owner, "chaos/members/" + std::to_string(o)));
        contentAt.push_back({""});
    }

    FaultPlan fplan;
    fplan.drop = 0.05;
    fplan.duplicate = 0.02;
    fplan.delayJitter = 0.02;
    fplan.seed = mixSeed(0xfa017u, seed);
    FaultInjector inj(universe.sim(), universe.net(), fplan);
    inj.arm();

    MembershipChaosResult res;
    SecondaryTier &tier = universe.secondaryTier();
    std::uint64_t clock = 0;
    auto write = [&](std::size_t o) {
        std::string text = "<" + std::to_string(clock) + ">";
        VersionNum expected = contentAt[o].size() - 1;
        WriteResult wr = universe.writeSync(docs[o].makeAppendUpdate(
            toBytes(text), expected, Timestamp{++clock, 1}));
        if (wr.completed && wr.committed && wr.version == expected + 1)
            contentAt[o].push_back(contentAt[o].back() + text);
        else
            res.lostWrites++;
    };
    auto read = [&](std::size_t from, std::size_t o) {
        ReadResult rr = universe.readSync(from, docs[o].guid());
        res.reads++;
        // A miss (every host down) is no wrong answer; found bytes
        // must be some committed version's, exactly, and come from a
        // member of the set (a non-member answers version 0, whose
        // empty bytes would pass the first check).  A stale version
        // is allowed here: a new host catching up, or a push still in
        // flight over the lossy network.
        if (!rr.found)
            res.misses++;
        else if (rr.version >= contentAt[o].size() ||
                 toString(docs[o].decryptContent(rr.blocks)) !=
                     contentAt[o][rr.version] ||
                 !tier.isMember(docs[o].guid(), rr.servedBy))
            res.badReads++;
        return rr;
    };

    Rng rng(mixSeed(0x3e3bu, seed));
    std::set<std::size_t> down;
    const std::size_t servers = universe.numServers();
    for (unsigned step = 0; step < 120; step++) {
        const std::size_t o = rng.below(kObjects);
        const unsigned action = static_cast<unsigned>(rng.below(10));
        if (action < 3) {
            write(o);
        } else if (action < 6) {
            read(rng.below(servers), o);
        } else if (action == 6) {
            // Crash a server (never the tree root), at most two at once.
            std::size_t idx = 1 + rng.below(servers - 1);
            if (down.size() < 2 && down.insert(idx).second) {
                universe.crashServer(idx);
                res.crashes++;
            }
        } else if (action == 7) {
            if (!down.empty()) {
                std::size_t idx = *down.begin();
                down.erase(down.begin());
                universe.restartServer(idx);
            }
        } else if (action == 8) {
            std::size_t idx = rng.below(servers);
            std::vector<std::size_t> hosts = universe.hosts(docs[o].guid());
            if (std::find(hosts.begin(), hosts.end(), idx) == hosts.end()) {
                universe.addHost(docs[o].guid(), idx);
                res.creates++;
            }
        } else {
            std::vector<std::size_t> hosts = universe.hosts(docs[o].guid());
            if (hosts.size() > 1) {
                universe.removeHost(docs[o].guid(),
                                    hosts[rng.below(hosts.size())]);
                res.retires++;
            }
        }
        universe.advance(rng.uniform(0.1, 2.0));
    }

    // Heal: a clean network, every server back, one more commit per
    // object (its push finds every member behind a gap), then time.
    inj.disarm();
    for (std::size_t idx : down)
        universe.restartServer(idx);
    for (std::size_t o = 0; o < kObjects; o++)
        write(o);
    universe.advance(60.0);

    TraceHash t;
    for (std::size_t o = 0; o < kObjects; o++) {
        const Guid &g = docs[o].guid();
        // The root hears of a commit only from primary rank 0, which a
        // dropped PBFT message can leave behind for good, so the
        // target is the root's version, not the last commit.
        const VersionNum root = tier.replica(0).committedVersion(g);
        res.rootVersions += root;
        for (std::size_t i = 0; i < servers; i++) {
            if (tier.isMember(g, i)) {
                res.laggingMembers += tier.replica(i).committedVersion(g) !=
                                      root;
                t.mix(i);
            }
        }
        // Healed, a read anywhere serves the root's version.
        const unsigned before = res.misses;
        for (std::size_t from = 0; from < servers; from++)
            res.staleHealReads += read(from, o).version < root;
        res.healMisses += res.misses - before;
        t.mix(root);
    }
    res.dropped = inj.dropped();
    t.mix(inj.traceHash());
    t.mix(universe.sim().eventsExecuted());
    t.mix(universe.net().totalMessages());
    t.mix(res.reads);
    t.mix(res.misses);
    t.mix(res.badReads);
    t.mix(res.creates);
    t.mix(res.retires);
    res.hash = t.h;
    return res;
}

TEST(Chaos, MembershipUnderChurn)
{
    std::set<std::uint64_t> distinct;
    unsigned creates = 0, retires = 0, crashes = 0;
    std::uint64_t rootVersions = 0;
    bool dumped = false;
    for (std::uint64_t seed = 1; seed <= 6; seed++) {
        MembershipChaosResult a = runMembershipChaos(seed);
        MembershipChaosResult b = runMembershipChaos(seed);
        EXPECT_EQ(a.hash, b.hash) << "seed " << seed;
        EXPECT_GT(a.reads, 0u) << "seed " << seed;
        // Safety: a read serves some committed version, byte-exact,
        // however the replica set moved under it.
        EXPECT_EQ(a.badReads, 0u) << "seed " << seed;
        EXPECT_EQ(a.healMisses, 0u) << "seed " << seed;
        EXPECT_EQ(a.staleHealReads, 0u) << "seed " << seed;
        EXPECT_EQ(a.lostWrites, 0u) << "seed " << seed;
        // Liveness: after the heal every live member holds the root's
        // version.
        EXPECT_EQ(a.laggingMembers, 0u) << "seed " << seed;
        EXPECT_GT(a.dropped, 0u) << "seed " << seed;
        creates += a.creates;
        retires += a.retires;
        crashes += a.crashes;
        rootVersions += a.rootVersions;
        distinct.insert(a.hash);
        if (::testing::Test::HasFailure() && !dumped) {
            dumped = true;
            dumpFailingSeed("membership", seed,
                            [&] { runMembershipChaos(seed); });
        }
    }
    // The matrix exercises every kind of membership change.
    EXPECT_GT(creates, 0u);
    EXPECT_GT(retires, 0u);
    EXPECT_GT(crashes, 0u);
    // And commits reached the tier: 6 seeds x 3 objects, ~10 each.
    EXPECT_GT(rootVersions, 60u);
    EXPECT_GE(distinct.size(), 4u);
}

} // namespace
} // namespace oceanstore
