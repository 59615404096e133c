#include "core/universe.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/stats.h"
#include "sim/topology.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/retry.h"

namespace oceanstore {

namespace {

/** Bloom overlay neighbors. */
constexpr unsigned overlayDegree = 4;

/**
 * Read-path location retries: on a two-tier miss the mesh is
 * repaired and the deterministic lookup re-run, each retry adding
 * its backoff delay to the modeled read latency.  maxAttempts
 * counts the initial lookup; 1 disables retries.
 */
constexpr RetryPolicy locationRetry{1.0, 2.0, 8.0, 3, 0.0};

/** Interned metric ids, registered once on first use. */
struct CoreMetricIds
{
    MetricsRegistry *reg;
    MetricsRegistry::Id writes, reads, readBloomHits, readMeshHits,
        readMisses, malformedRequests;

    CoreMetricIds()
        : reg(&MetricsRegistry::global()),
          writes(reg->counter("core.writes")),
          reads(reg->counter("core.reads")),
          readBloomHits(reg->counter("core.read_bloom_hits")),
          readMeshHits(reg->counter("core.read_mesh_hits")),
          readMisses(reg->counter("core.read_misses")),
          malformedRequests(reg->counter("pbft.malformed_requests"))
    {
    }
};

CoreMetricIds &
coreMetrics()
{
    static CoreMetricIds ids;
    return ids;
}

} // namespace

Universe::Universe(UniverseConfig cfg)
    : cfg_(cfg), rng_(cfg.seed), registry_(cfg.seed ^ 0x5a5a5a5au),
      semantic_(4), prefetcher_(2, 2), replicaMgr_(cfg.replicaPolicy)
{
    // 0. Runtime (DESIGN.md section 15).  Both modes own a
    //    simulator/network pair; sim mode forwards every call
    //    unchanged, so everything below is byte-identical to the
    //    pre-Runtime tree, and threaded mode paces it by the wall
    //    clock over the loopback link model.
    sim_ = std::make_unique<Simulator>();
    net_ = std::make_unique<Network>(
        *sim_, cfg_.runtime == RuntimeKind::Sim ? cfg_.network
                                                : loopbackNetwork);
    rt_ = std::make_unique<Runtime>(*sim_, *net_, cfg_.seed, cfg_.runtime);

    // Assemble inside execute(): in threaded mode this keeps loop
    // callbacks from interleaving with construction; in sim mode
    // execute() is a plain call.
    rt_->execute([&]() { assemble(); });
}

void
Universe::assemble()
{
    // 1. Overlay topology for the secondary tier and Bloom locator.
    topo_ = makeGeometricTopology(cfg_.numServers, overlayDegree, rng_);

    // 2. Secondary tier replicas at the topology's positions (replica
    //    i <-> overlay node i <-> NodeId i).
    tier_ = std::make_unique<SecondaryTier>(*rt_, topo_.positions,
                                            cfg_.secondary);

    // 3. Global location mesh over the secondary servers.
    std::vector<NodeId> members;
    for (std::size_t i = 0; i < cfg_.numServers; i++)
        members.push_back(tier_->replica(i).nodeId());
    mesh_ = std::make_unique<PlaxtonMesh>(*rt_, members, rng_,
                                          cfg_.plaxton);

    // 4. Probabilistic locator over the same overlay.
    bloom_ = std::make_unique<BloomLocationService>(topo_, cfg_.bloom);

    // 5. Primary tier in a well-connected central region.
    unsigned n = 3 * cfg_.pbft.m + 1;
    std::vector<std::pair<double, double>> tier_pos;
    for (unsigned r = 0; r < n; r++) {
        double angle = 2.0 * 3.14159265358979 * r / n;
        tier_pos.emplace_back(0.5 + 0.04 * std::cos(angle),
                              0.5 + 0.04 * std::sin(angle));
    }
    pbft_ = std::make_unique<PbftCluster>(*rt_, tier_pos, registry_,
                                          cfg_.pbft);
    primaryObjects_.resize(n);
    client_ = pbft_->makeClient(0.5, 0.5, 1);

    // 6. Archival servers co-located with the secondary servers,
    //    assigned to administrative domains by region.
    std::vector<unsigned> domains;
    unsigned side = static_cast<unsigned>(
        std::ceil(std::sqrt(static_cast<double>(cfg_.archiveDomains))));
    for (const auto &[x, y] : topo_.positions) {
        unsigned dx = std::min<unsigned>(
            side - 1, static_cast<unsigned>(x * side));
        unsigned dy = std::min<unsigned>(
            side - 1, static_cast<unsigned>(y * side));
        domains.push_back((dx * side + dy) % cfg_.archiveDomains);
    }
    archive_ = std::make_unique<ArchivalSystem>(*rt_, topo_.positions,
                                                domains, cfg_.archive);
    archiveClient_ = archive_->makeClient(0.5, 0.5);
    archiveCodec_ = std::make_unique<ReedSolomonCode>(
        cfg_.archiveDataFragments, cfg_.archiveTotalFragments);

    // 7. Durable storage (DESIGN.md section 14): one handle per
    //    secondary server — shared by the co-located archival server
    //    and mesh node — plus one per primary replica, each with a
    //    node-mixed fault seed so crashes damage disks independently
    //    but deterministically.
    serverStorage_.reserve(cfg_.numServers);
    for (std::size_t i = 0; i < cfg_.numServers; i++) {
        StorageSetup setup = cfg_.storage;
        setup.faults.seed = cfg_.storage.faults.seed ^
                            (0x9e3779b97f4a7c15ull * (i + 1));
        serverStorage_.push_back(
            std::make_unique<NodeStorage>(setup));
        archive_->server(i).attachStorage(serverStorage_[i].get());
        mesh_->attachStorage(tier_->replica(i).nodeId(),
                             serverStorage_[i].get());
        serverIndexByNode_[tier_->replica(i).nodeId()] = i;
        serverIndexByNode_[archive_->server(i).nodeId()] = i;
    }
    for (unsigned r = 0; r < n; r++) {
        StorageSetup setup = cfg_.storage;
        setup.faults.seed = cfg_.storage.faults.seed ^
                            (0xc2b2ae3d27d4eb4full * (r + 1));
        primaryStorage_.push_back(
            std::make_unique<NodeStorage>(setup));
        pbft_->replica(r).attachStorage(primaryStorage_[r].get());
        primaryRankByNode_[pbft_->replica(r).nodeId()] = r;
    }

    wireCommitPath();
}

Universe::~Universe()
{
    // Stop a paced loop thread before any protocol tier (a registered
    // endpoint) is torn down, so no event can call into a
    // half-destroyed node.
    rt_->shutdown();
}

void
Universe::wireCommitPath()
{
    pbft_->executor = [this](unsigned rank, const Bytes &payload,
                             std::uint64_t seq) {
        return executeUpdate(rank, payload, seq);
    };

    pbft_->onCommit = [this](const Blob &, std::uint64_t) {
        // Runs on the rank-0 replica right after executeUpdate()
        // applied the update there: push the committed result down
        // the dissemination tree and generate archival fragments
        // (Section 4.4.4).  The tree shares rank 0's decoded update,
        // so an update the write guard refused never reaches it.
        SharedUpdate u = std::move(rank0Applied_);
        if (!u)
            return;
        const DataObject &obj = primaryObjects_[0].at(u->objectGuid);
        if (!obj.log().back().committed)
            return; // aborted updates do not propagate
        const Guid guid = u->objectGuid;
        tier_->injectCommitted(std::move(u), obj.version());
        if (cfg_.archiveOnCommit)
            archiveObject(guid);
    };
}

Bytes
Universe::executeUpdate(unsigned rank, const Bytes &payload,
                        std::uint64_t)
{
    OS_CHECK(rank < primaryObjects_.size(),
             "executeUpdate: rank ", rank, " of ",
             primaryObjects_.size());
    if (rank == 0)
        rank0Applied_.reset();
    auto reply = [&](bool committed, VersionNum v) {
        ByteWriter w;
        w.putU8(committed ? 1 : 0);
        w.putU64(v);
        return w.take();
    };

    // The replicas execute one committed payload after another, so
    // they share one decode of it, as the secondary tier does.
    if (!lastDecoded_ || payload != lastPayload_) {
        // Any client's payload is ordered, so bytes that do not decode
        // are a deterministic abort: every correct replica returns the
        // same reply (the client completes on m+1 of them), and with
        // rank0Applied_ left null nothing reaches the tree.
        std::optional<Update> decoded = Update::deserializeFull(payload);
        if (!decoded) {
            CoreMetricIds &cm = coreMetrics();
            cm.reg->inc(cm.malformedRequests);
            return reply(false, 0);
        }
        lastDecoded_ = shareUpdate(std::move(*decoded));
        lastPayload_ = payload;
    }
    const Update &u = *lastDecoded_;

    // Writer restriction (Section 4.2): well-behaved servers verify
    // the signature against the object's certified ACL and ignore
    // unauthorized updates.
    if (!guard_.admits(u.objectGuid, u.writerPublicKey,
                       u.serializeForSigning(), u.signature,
                       registry_)) {
        auto it = primaryObjects_[rank].find(u.objectGuid);
        VersionNum v = it == primaryObjects_[rank].end()
                           ? 0
                           : it->second.version();
        return reply(false, v);
    }

    auto it = primaryObjects_[rank].find(u.objectGuid);
    if (it == primaryObjects_[rank].end()) {
        it = primaryObjects_[rank]
                 .emplace(u.objectGuid, DataObject(u.objectGuid))
                 .first;
    }
    if (rank == 0)
        rank0Applied_ = lastDecoded_;
    ApplyResult res = it->second.apply(lastDecoded_);
    return reply(res.committed, res.version);
}

KeyPair
Universe::makeUser()
{
    // Every public entry point below runs inside execute(), so in
    // threaded mode any number of client threads may call the
    // Universe API concurrently; in sim mode execute() is a plain
    // call and nothing changes.
    KeyPair kp;
    rt_->execute([&]() { kp = registry_.generate(); });
    return kp;
}

ObjectHandle
Universe::createObject(const KeyPair &owner, const std::string &name)
{
    ObjectHandle handle(owner, name);
    rt_->execute([&]() {
        // Owner-signed ACL: the owner may write (Section 4.2).
        Acl acl;
        acl.grant(owner.publicKey,
                  static_cast<std::uint8_t>(Privilege::Owner) |
                      static_cast<std::uint8_t>(Privilege::Write) |
                      static_cast<std::uint8_t>(Privilege::Read));
        AclCertificate cert = AclCertificate::issue(handle.guid(), acl,
                                                    owner);
        guard_.install(cert, acl, registry_);

        // Place the initial floating replicas, publish them, and
        // declare the object's replica set once.
        std::size_t want = std::min<std::size_t>(cfg_.initialHosts,
                                                 cfg_.numServers);
        auto picks = rng_.sampleIndices(cfg_.numServers, want);
        for (std::size_t idx : picks) {
            bloom_->addObject(static_cast<NodeId>(idx), handle.guid());
            mesh_->publish(handle.guid(), tier_->replica(idx).nodeId());
        }
        tier_->addHosts(handle.guid(), picks);
    });
    return handle;
}

void
Universe::grantWrite(const ObjectHandle &handle, const KeyPair &owner,
                     const Bytes &writer_key)
{
    rt_->execute([&]() {
    const Acl *current = guard_.aclFor(handle.guid());
    Acl acl = current ? *current : Acl();
    acl.grant(writer_key, static_cast<std::uint8_t>(Privilege::Write));
    AclCertificate cert = AclCertificate::issue(handle.guid(), acl,
                                                owner);
    guard_.install(cert, acl, registry_);
    });
}

void
Universe::syncGroupAcl(const ObjectHandle &handle, const KeyPair &owner,
                       const WorkingGroup &group)
{
    rt_->execute([&]() {
    // Materialize from a clean base (owner only) so expelled members
    // do not linger from earlier materializations.
    Acl base;
    base.grant(owner.publicKey,
               static_cast<std::uint8_t>(Privilege::Owner) |
                   static_cast<std::uint8_t>(Privilege::Write) |
                   static_cast<std::uint8_t>(Privilege::Read));
    Acl acl = group.materializeAcl(base);
    AclCertificate cert = AclCertificate::issue(handle.guid(), acl,
                                                owner);
    guard_.install(cert, acl, registry_);
    });
}

void
Universe::drainAccesses()
{
    // Records overwritten before a drain are lost to the analyzers:
    // they see at most the window's newest kAccessWindow reads.
    std::uint64_t from = std::max<std::uint64_t>(
        accessesFed_, accessCount_ - accesses_.size());
    for (std::uint64_t i = from; i < accessCount_; i++) {
        const Guid &obj = accesses_[i % kAccessWindow].obj;
        semantic_.onAccess(obj);
        prefetcher_.onAccess(obj);
    }
    accessesFed_ = accessCount_;
}

SemanticGraph &
Universe::semanticGraph()
{
    rt_->execute([&]() { drainAccesses(); });
    return semantic_;
}

Prefetcher &
Universe::prefetcher()
{
    rt_->execute([&]() { drainAccesses(); });
    return prefetcher_;
}

unsigned
Universe::collocateClusters(double min_weight)
{
    unsigned created = 0;
    rt_->execute([&]() {
    drainAccesses();
    for (const auto &cluster : semantic_.clusters(min_weight)) {
        // Pick the server already hosting the most cluster members.
        std::map<std::size_t, unsigned> host_counts;
        for (const Guid &obj : cluster) {
            for (std::size_t idx : tier_->hosts(obj))
                host_counts[idx]++;
        }
        if (host_counts.empty())
            continue;
        std::size_t best = host_counts.begin()->first;
        unsigned best_count = 0;
        for (const auto &[idx, count] : host_counts) {
            if (count > best_count) {
                best = idx;
                best_count = count;
            }
        }
        for (const Guid &obj : cluster) {
            // Replica 0 is in every set: a non-member of it is no
            // object we host (noise GUID).
            if (!tier_->isMember(obj, 0))
                continue;
            if (!tier_->isHost(obj, best)) {
                addHost(obj, best);
                created++;
            }
        }
    }
    });
    return created;
}

std::vector<std::size_t>
Universe::hosts(const Guid &obj) const
{
    std::vector<std::size_t> out;
    rt_->execute([&]() { out = tier_->hosts(obj); });
    return out;
}

void
Universe::addHost(const Guid &obj, std::size_t idx)
{
    rt_->execute([&]() {
        // Create (DESIGN.md section 23): publish at once, then join the
        // replica set, which fetches the committed state from the new
        // member's parent.
        if (tier_->isHost(obj, idx))
            return;
        bloom_->addObject(static_cast<NodeId>(idx), obj);
        mesh_->publish(obj, tier_->replica(idx).nodeId());
        tier_->addHosts(obj, {idx});
    });
}

void
Universe::removeHost(const Guid &obj, std::size_t idx)
{
    rt_->execute([&]() {
        if (!tier_->isHost(obj, idx))
            return;
        // Retire: unpublish first, so no new read is routed here, then
        // drop the member's state.
        bloom_->removeObject(static_cast<NodeId>(idx), obj);
        mesh_->unpublish(obj, tier_->replica(idx).nodeId());
        tier_->removeHost(obj, idx);
    });
}

void
Universe::write(const Update &u, std::function<void(WriteResult)> done)
{
    rt_->execute([&]() {
    // Root span for the whole update path: serialization, the PBFT
    // rounds and the dissemination push all nest under it.
    ScopedSpan span("core", "core.write", rt_->now());
    {
        CoreMetricIds &cm = coreMetrics();
        cm.reg->inc(cm.writes);
    }
    client_->submit(u.serializeFull(), [done = std::move(done)](
                                           const PbftOutcome &out) {
        WriteResult wr;
        wr.completed = out.completed;
        wr.latency = out.latency;
        if (out.result.size() >= 9) {
            ByteReader r(out.result);
            wr.committed = r.getU8() != 0;
            wr.version = r.getU64();
        }
        if (done)
            done(wr);
    });
    });
}

WriteResult
Universe::writeSync(const Update &u)
{
    WriteResult result;
    bool fired = false;
    write(u, [&](WriteResult wr) {
        result = wr;
        fired = true;
    });
    runUntil([&]() { return fired; }, rt_->now() + 600.0);
    return result;
}

void
Universe::read(std::size_t from_server, const Guid &obj,
               std::function<void(ReadResult)> done)
{
    rt_->execute([&]() {
    ReadResult res;
    ScopedSpan span("core", "core.read", rt_->now());
    CoreMetricIds &cm = coreMetrics();
    cm.reg->inc(cm.reads);

    // A read entered at a down server re-homes to the nearest live
    // one: the dead node's filters and mesh membership are gone, so a
    // lookup from it would only spend the location retries.  The hop
    // to the new origin is charged to the modeled latency.
    std::size_t origin = from_server;
    double latency = 0.0;
    const NodeId entry = tier_->replica(from_server).nodeId();
    if (!rt_->isUp(entry)) {
        double best = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < cfg_.numServers; i++) {
            const NodeId n = tier_->replica(i).nodeId();
            double hop = rt_->latency(entry, n);
            if (rt_->isUp(n) && hop < best) {
                origin = i;
                best = hop;
            }
        }
        if (origin != from_server)
            latency = best;
    }
    const NodeId originNode = tier_->replica(origin).nodeId();

    // Tier 1: probabilistic location (Section 4.3.2).
    auto bq = bloom_->query(static_cast<NodeId>(origin), obj);
    std::size_t holder = invalidNode;
    if (bq.found &&
        rt_->isUp(tier_->replica(bq.location).nodeId())) {
        res.viaBloom = true;
        holder = bq.location;
        for (std::size_t i = 1; i < bq.path.size(); i++) {
            latency += rt_->latency(
                tier_->replica(bq.path[i - 1]).nodeId(),
                tier_->replica(bq.path[i]).nodeId());
        }
        // Response routes directly back to the requester.
        latency += rt_->latency(tier_->replica(holder).nodeId(),
                                originNode);
    } else {
        // Tier 2: the global mesh (Section 4.3.3).  Also the fallback
        // when the Bloom tier advertises a crashed holder — its soft
        // state decays lazily, whereas mesh locate() filters dead
        // storers at lookup time.
        auto lr = mesh_->locate(originNode, obj);
        if (lr.found) {
            holder = replicaIndexOf(lr.location);
            latency += lr.latency + rt_->latency(lr.location, originNode);
        }
    }
    // A holder outside the object's replica set holds nothing of it:
    // the pointer outlived a Retire (DESIGN.md section 23).  The trip
    // there is spent, and the read goes on as a miss.
    if (holder != static_cast<std::size_t>(invalidNode) &&
        !tier_->isMember(obj, holder)) {
        holder = invalidNode;
        res.viaBloom = false;
    }

    // Location retry: a miss in both tiers usually means stale mesh
    // state after churn, so repair the pointer paths (which drops
    // pointers to storers that no longer publish the object) and
    // re-run the deterministic lookup, charging each retry's backoff
    // delay to the modeled read latency.
    if (holder == static_cast<std::size_t>(invalidNode)) {
        RetrySchedule sched(locationRetry, cfg_.seed ^ obj.hash64());
        for (unsigned a = 1; a < locationRetry.maxAttempts; a++) {
            auto gap = sched.nextDelay();
            if (!gap.has_value())
                break;
            latency += *gap;
            mesh_->repair();
            auto lr = mesh_->locate(originNode, obj);
            if (!lr.found)
                continue;
            latency += lr.latency + rt_->latency(lr.location, originNode);
            const std::size_t found = replicaIndexOf(lr.location);
            if (!tier_->isMember(obj, found))
                continue;
            holder = found;
            break;
        }
    }

    if (holder != static_cast<std::size_t>(invalidNode)) {
        const DataObject &state =
            tier_->replica(holder).committedObject(obj);
        res.found = true;
        res.blocks = state.logicalContent();
        res.version = state.version();
        res.servedBy = holder;
        cm.reg->inc(res.viaBloom ? cm.readBloomHits : cm.readMeshHits);
    } else {
        cm.reg->inc(cm.readMisses);
    }
    res.latency = latency;

    // Introspection's only work on the read path (Section 4.7.1): one
    // fixed-size record in the access window.
    AccessRecord rec{obj, static_cast<std::uint32_t>(origin),
                     static_cast<std::uint32_t>(holder)};
    if (accesses_.size() < kAccessWindow)
        accesses_.push_back(rec);
    else
        accesses_[accessCount_ % kAccessWindow] = rec;
    accessCount_++;

    rt_->schedule(latency, [res = std::move(res),
                            done = std::move(done)]() mutable {
        if (done)
            done(std::move(res));
    });
    });
}

std::size_t
Universe::replicaIndexOf(NodeId node) const
{
    // serverIndexByNode_ also maps archival NodeIds; only a tier
    // replica's own NodeId names it.
    auto it = serverIndexByNode_.find(node);
    if (it == serverIndexByNode_.end() ||
        tier_->replica(it->second).nodeId() != node)
        return static_cast<std::size_t>(invalidNode);
    return it->second;
}

ReadResult
Universe::readSync(std::size_t from_server, const Guid &obj)
{
    ReadResult result;
    bool fired = false;
    read(from_server, obj, [&](ReadResult rr) {
        result = std::move(rr);
        fired = true;
    });
    runUntil([&]() { return fired; }, rt_->now() + 600.0);
    return result;
}

Guid
Universe::archiveObject(const Guid &obj)
{
    Guid out;
    rt_->execute([&]() {
        auto it = primaryObjects_[0].find(obj);
        if (it == primaryObjects_[0].end())
            return;
        Bytes state = it->second.serializeState();
        // The fragments are generated by the inner tier during commit;
        // dispersal originates from the live archival server nearest
        // the primary tier (the center).  A down origin's sends are
        // dropped, so recording a version dispersed from one would
        // make it unrestorable.
        std::size_t source = archive_->size();
        double best = 1e9;
        for (std::size_t i = 0; i < archive_->size(); i++) {
            NodeId node = archive_->server(i).nodeId();
            if (!rt_->isUp(node))
                continue;
            double d = std::hypot(rt_->xOf(node) - 0.5,
                                  rt_->yOf(node) - 0.5);
            if (d < best) {
                best = d;
                source = i;
            }
        }
        if (source == archive_->size())
            return;
        out = archive_->disperse(*archiveCodec_, state, source);
        archives_[obj][it->second.version()] = out;
    });
    return out;
}

Guid
Universe::latestArchive(const Guid &obj) const
{
    Guid out;
    rt_->execute([&]() {
        auto it = archives_.find(obj);
        if (it != archives_.end() && !it->second.empty())
            out = it->second.rbegin()->second;
    });
    return out;
}

std::vector<std::pair<VersionNum, Guid>>
Universe::archivedVersions(const Guid &obj) const
{
    std::vector<std::pair<VersionNum, Guid>> out;
    rt_->execute([&]() {
        auto it = archives_.find(obj);
        if (it != archives_.end())
            out.assign(it->second.begin(), it->second.end());
    });
    return out;
}

Guid
Universe::resolveVersionedName(const VersionedName &name) const
{
    Guid out;
    rt_->execute([&]() {
        auto it = archives_.find(name.guid);
        if (it == archives_.end())
            return;
        if (!name.version.has_value()) {
            if (!it->second.empty())
                out = it->second.rbegin()->second;
            return;
        }
        auto vit = it->second.find(*name.version);
        if (vit != it->second.end())
            out = vit->second;
    });
    return out;
}

std::optional<DataObject>
Universe::readVersion(const Guid &obj, VersionNum v) const
{
    std::optional<DataObject> out;
    rt_->execute([&]() {
        auto it = primaryObjects_[0].find(obj);
        if (it == primaryObjects_[0].end() ||
            v > it->second.version())
            return;
        out = it->second.materializeVersion(v);
    });
    return out;
}

std::vector<VersionRecord>
Universe::historyOf(const Guid &obj) const
{
    std::vector<VersionRecord> out;
    rt_->execute([&]() {
        auto it = primaryObjects_[0].find(obj);
        if (it != primaryObjects_[0].end())
            out = modificationHistory(it->second);
    });
    return out;
}

unsigned
Universe::applyRetention(const Guid &obj, const RetentionPolicy &policy)
{
    unsigned retired = 0;
    rt_->execute([&]() {
        auto it = archives_.find(obj);
        if (it == archives_.end())
            return;
        std::vector<VersionNum> versions;
        for (const auto &[v, g] : it->second)
            versions.push_back(v);
        auto keep = selectRetainedVersions(versions, policy);

        for (auto vit = it->second.begin();
             vit != it->second.end();) {
            if (keep.count(vit->first)) {
                ++vit;
                continue;
            }
            archive_->forget(vit->second);
            vit = it->second.erase(vit);
            retired++;
        }
    });
    return retired;
}

ReconstructResult
Universe::restoreSync(const Guid &archive_guid)
{
    ReconstructResult result;
    bool fired = false;
    // Kick off the reconstruction inside execute(); the completion
    // runs on the loop, and runUntil evaluates the predicate under
    // the same mutex, so `fired`/`result` are never touched
    // concurrently.
    rt_->execute([&]() {
        archive_->reconstruct(*archiveClient_, archive_guid,
                              [&](const ReconstructResult &r) {
                                  result = r;
                                  fired = true;
                              });
    });
    runUntil([&]() { return fired; }, rt_->now() + 600.0);
    return result;
}

std::vector<ReplicaAction>
Universe::runReplicaManagementEpoch()
{
    std::vector<ReplicaAction> actions;
    rt_->execute([&]() {
    drainAccesses();

    // The epoch's loads, counted from the window: requests each
    // replica served, and where each object's reads originated.
    std::map<std::pair<Guid, std::size_t>, std::uint64_t> served;
    std::map<Guid, std::map<std::size_t, std::uint64_t>> readers;
    for (const AccessRecord &rec : accesses_) {
        readers[rec.obj][rec.origin]++;
        if (rec.holder != invalidNode)
            served[{rec.obj, rec.holder}]++;
    }

    std::vector<ReplicaLoad> loads;
    for (const Guid &obj : tier_->objects()) {
        for (std::size_t idx : tier_->hosts(obj)) {
            ReplicaLoad l;
            l.object = obj;
            l.host = tier_->replica(idx).nodeId();
            auto sit = served.find({obj, idx});
            l.requests = sit == served.end() ? 0 : sit->second;
            loads.push_back(l);
        }
    }

    // Candidate hosts: new replicas should float toward the readers
    // ("a user's email [migrates] closer to his client", Sec 4.7.2),
    // so rank candidates by proximity to the object's heaviest
    // reader; fall back to the overloaded host's own neighborhood
    // when no reads were observed.  Only an overloaded replica asks
    // for help, and the servers are sorted once per distinct anchor.
    ReplicaCandidates candidates;
    std::map<NodeId, std::vector<NodeId>> nearest;
    for (const auto &l : loads) {
        if (l.requests < replicaMgr_.config().overloadThreshold)
            continue;
        NodeId anchor = l.host;
        auto rit = readers.find(l.object);
        if (rit != readers.end()) {
            std::size_t heaviest = rit->second.begin()->first;
            std::uint64_t best = 0;
            for (const auto &[reader, count] : rit->second) {
                if (count > best) {
                    best = count;
                    heaviest = reader;
                }
            }
            anchor = tier_->replica(heaviest).nodeId();
        }
        auto [nit, fresh] = nearest.try_emplace(anchor);
        if (fresh) {
            std::vector<std::size_t> order;
            for (std::size_t i = 0; i < cfg_.numServers; i++)
                order.push_back(i);
            std::sort(order.begin(), order.end(),
                      [&](std::size_t a, std::size_t b) {
                          return rt_->latency(anchor,
                                              tier_->replica(a).nodeId()) <
                                 rt_->latency(anchor,
                                              tier_->replica(b).nodeId());
                      });
            for (std::size_t i = 0; i < order.size() && i < 5; i++)
                nit->second.push_back(tier_->replica(order[i]).nodeId());
        }
        candidates[{l.object, l.host}] = nit->second;
    }

    actions = replicaMgr_.decide(loads, candidates);

    // Confidence estimation (Section 4.7.2): when past replica
    // creations have been hurting, suppress new ones (with periodic
    // probation) to damp harmful feedback cycles.
    if (!confidence_.shouldApply("replica.create")) {
        std::erase_if(actions, [](const ReplicaAction &a) {
            return a.kind == ReplicaAction::Kind::Create;
        });
    }

    for (const auto &a : actions) {
        std::size_t idx = replicaIndexOf(a.target);
        if (idx == static_cast<std::size_t>(invalidNode))
            continue;
        if (a.kind == ReplicaAction::Kind::Create)
            addHost(a.object, idx);
        else
            removeHost(a.object, idx);
    }
    accesses_.clear();
    accessCount_ = 0;
    accessesFed_ = 0;
    });
    return actions;
}

NodeStorage &
Universe::storageOf(std::size_t idx)
{
    OS_CHECK(idx < serverStorage_.size(), "storageOf: server ", idx,
             " of ", serverStorage_.size());
    return *serverStorage_[idx];
}

NodeStorage &
Universe::primaryStorage(unsigned rank)
{
    OS_CHECK(rank < primaryStorage_.size(), "primaryStorage: rank ",
             rank, " of ", primaryStorage_.size());
    return *primaryStorage_[rank];
}

void
Universe::crashServer(std::size_t idx)
{
    OS_CHECK(idx < serverStorage_.size(), "crashServer: server ", idx,
             " of ", serverStorage_.size());
    rt_->execute([&]() {
        // Storage dies first so no teardown step below can write through
        // to a disk that should already have stopped (a crashed handle
        // has no running store to write to).
        if (serverStorage_[idx]->running()) {
            auto report = serverStorage_[idx]->crash();
            if (report.tornBytes || report.bitFlips) {
                logInfo("universe: server ", idx, " crash damaged disk (",
                        report.tornBytes, " torn bytes, ",
                        report.bitFlips, " bit flips)");
            }
        }
        NodeId tnode = tier_->replica(idx).nodeId();
        rt_->setDown(tnode);
        rt_->setDown(archive_->server(idx).nodeId());
        // RAM state is amnesia: the mesh forgets the node wholesale.
        // The archival server keeps nothing in RAM to lose; its
        // fragments are the log records on the surviving disk.
        mesh_->removeNode(tnode);
    });
}

void
Universe::restartServer(std::size_t idx)
{
    OS_CHECK(idx < serverStorage_.size(), "restartServer: server ",
             idx, " of ", serverStorage_.size());
    rt_->execute([&]() {
        // Recovery replay happens here: constructing the store over the
        // surviving disk image truncates any torn tail and rejects
        // corrupt records before anything is served.
        if (!serverStorage_[idx]->running())
            serverStorage_[idx]->restart();
        NodeId tnode = tier_->replica(idx).nodeId();
        rt_->setUp(tnode);
        rt_->setUp(archive_->server(idx).nodeId());
        // Reloads the pointers this node stores on behalf of others,
        // then republishes its own floating replicas.
        std::size_t ptrs = mesh_->restoreNode(tnode);
        logInfo("universe: server ", idx, " restarted (",
                serverStorage_[idx]->lastRecovery().liveKeys,
                " live records, ", ptrs, " stored pointers)");
    });
}

void
Universe::crashPrimary(unsigned rank)
{
    OS_CHECK(rank < primaryStorage_.size(), "crashPrimary: rank ",
             rank, " of ", primaryStorage_.size());
    rt_->execute([&]() {
        if (primaryStorage_[rank]->running())
            primaryStorage_[rank]->crash();
        rt_->setDown(pbft_->replica(rank).nodeId());
        // The replica's application state is RAM: it must be rebuilt from
        // the durable update log on restart.
        primaryObjects_[rank].clear();
    });
}

void
Universe::restartPrimary(unsigned rank)
{
    OS_CHECK(rank < primaryStorage_.size(), "restartPrimary: rank ",
             rank, " of ", primaryStorage_.size());
    rt_->execute([&]() {
        if (!primaryStorage_[rank]->running())
            primaryStorage_[rank]->restart();
        rt_->setUp(pbft_->replica(rank).nodeId());
        std::uint64_t replayed = pbft_->replica(rank).restoreFromLog();
        logInfo("universe: primary rank ", rank, " restarted, replayed ",
                replayed, " committed updates");
    });
}

void
Universe::shutdown(NodeId n)
{
    rt_->execute([&]() {
        auto sit = serverIndexByNode_.find(n);
        if (sit != serverIndexByNode_.end()) {
            crashServer(sit->second);
            return;
        }
        auto pit = primaryRankByNode_.find(n);
        if (pit != primaryRankByNode_.end()) {
            crashPrimary(pit->second);
            return;
        }
        rt_->setDown(n); // not a storage-owning node: link state only
    });
}

void
Universe::restart(NodeId n)
{
    rt_->execute([&]() {
        auto sit = serverIndexByNode_.find(n);
        if (sit != serverIndexByNode_.end()) {
            restartServer(sit->second);
            return;
        }
        auto pit = primaryRankByNode_.find(n);
        if (pit != primaryRankByNode_.end()) {
            restartPrimary(pit->second);
            return;
        }
        rt_->setUp(n);
    });
}

bool
Universe::runUntil(const std::function<bool()> &pred, double max_time)
{
    return rt_->runUntil(pred, max_time);
}

std::string
Universe::statusReport()
{
    RuntimeStats stats;
    std::size_t nodes = 0;
    std::size_t objects = 0;
    // Snapshot inside execute() so depths and counts are consistent
    // even while the loop is serving clients.
    rt_->execute([&]() {
        stats = rt_->stats();
        nodes = rt_->nodeCount();
        objects = tier_->objects().size();
    });
    publishRuntimeStats(stats);
    std::ostringstream out;
    out << "{\"backend\": \""
        << (rt_->deterministic() ? "sim" : "threaded")
        << "\", \"servers\": " << cfg_.numServers
        << ", \"primaries\": " << (3 * cfg_.pbft.m + 1)
        << ", \"nodes\": " << nodes << ", \"objects\": " << objects
        << ", \"runtime\": ";
    writeRuntimeStatsJson(stats, out);
    out << "}";
    return out.str();
}

} // namespace oceanstore
