/**
 * @file
 * The OceanStore universe: full-system integration harness.
 *
 * Composes every substrate into the system of Figures 1 and 5:
 *
 *  - a simulated WAN (src/sim) with geometric latencies;
 *  - a primary tier running Byzantine agreement near the center of
 *    the network ("high-bandwidth, high-connectivity regions");
 *  - a secondary tier of floating replicas with epidemic propagation
 *    and one dissemination tree per object, over its replica set;
 *  - two-tier data location: attenuated Bloom filters first, the
 *    Plaxton mesh as the deterministic fallback (Section 4.3);
 *  - access control enforced server-side on signed updates;
 *  - deep archival storage coupled to the commit path (Section 4.4.4);
 *  - introspection: access monitoring, cluster recognition,
 *    prefetching and replica management (Section 4.7).
 *
 * Writes follow the paper's update path: client -> primary tier
 * (agreement) -> dissemination tree -> secondary replicas, with
 * archival fragments generated as a side effect of commitment.
 * Reads hit the probabilistic locator and fall back to the global
 * mesh.
 */

#ifndef OCEANSTORE_CORE_UNIVERSE_H
#define OCEANSTORE_CORE_UNIVERSE_H

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "access/acl.h"
#include "access/groups.h"
#include "archive/archival.h"
#include "bloom/location_service.h"
#include "consistency/byzantine.h"
#include "consistency/secondary.h"
#include "core/object_handle.h"
#include "core/versioning.h"
#include "erasure/reed_solomon.h"
#include "introspect/clustering.h"
#include "introspect/confidence.h"
#include "introspect/prefetch.h"
#include "introspect/replica_mgmt.h"
#include "plaxton/mesh.h"
#include "runtime/runtime.h"
#include "sim/churn.h"
#include "storage/node_storage.h"
#include "util/check.h"

namespace oceanstore {

/** Universe-wide configuration. */
struct UniverseConfig
{
    std::size_t numServers = 48;   //!< Secondary-tier servers.
    unsigned initialHosts = 3;     //!< Floating replicas per new object.
    unsigned archiveDataFragments = 16;
    unsigned archiveTotalFragments = 32;
    unsigned archiveDomains = 4;   //!< Administrative domains.
    bool archiveOnCommit = true;   //!< Couple archival to commits.
    std::uint64_t seed = 0x0cea5042u;

    /**
     * Runtime backend (DESIGN.md section 15).  Sim keeps the historic
     * byte-exact behavior; Threaded paces the same simulator and
     * network by the wall clock.
     */
    RuntimeKind runtime = RuntimeKind::Sim;

    /** The simulated WAN (Sim mode; Threaded mode always models the
     *  loopbackNetwork of runtime/runtime.h). */
    NetworkConfig network;
    BloomLocationConfig bloom;
    PlaxtonConfig plaxton;
    SecondaryConfig secondary;
    PbftConfig pbft;
    ArchiveConfig archive;
    ReplicaPolicyConfig replicaPolicy;
    /**
     * Durable storage per node (DESIGN.md section 14): every server
     * and primary replica runs an append-only log store that survives
     * the crash/restart lifecycle.  `storage.faults.seed` is mixed per
     * node.
     */
    StorageSetup storage;
};

/** Result of a write (after the primary tier serialized it). */
struct WriteResult
{
    bool completed = false; //!< Quorum of replies arrived.
    bool committed = false; //!< Predicates held; actions applied.
    VersionNum version = 0; //!< Object version after the update.
    double latency = 0.0;   //!< Client-observed commit latency.
};

/** Result of a read. */
struct ReadResult
{
    bool found = false;
    std::vector<Bytes> blocks; //!< Logical ciphertext blocks.
    VersionNum version = 0;
    double latency = 0.0;      //!< Modeled location + fetch latency.
    bool viaBloom = false;     //!< Satisfied by the probabilistic tier.
    std::size_t servedBy = 0;  //!< Server index that served the read.
};

/** The assembled system. */
class Universe : public NodeLifecycle
{
  public:
    explicit Universe(UniverseConfig cfg = {});
    ~Universe() override;

    Universe(const Universe &) = delete;
    Universe &operator=(const Universe &) = delete;

    // --- infrastructure access ----------------------------------------

    /** The runtime backend every tier is wired through. */
    Runtime &rt() { return *rt_; }

    /** The discrete-event simulator under the runtime.  In threaded
     *  mode touch it only inside rt().execute(). */
    Simulator &sim() { return *sim_; }

    /** The network under the runtime (partitions, fault injectors,
     *  accounting).  In threaded mode touch it only inside
     *  rt().execute(). */
    Network &net() { return *net_; }

    KeyRegistry &registry() { return registry_; }
    PbftCluster &primaryTier() { return *pbft_; }
    SecondaryTier &secondaryTier() { return *tier_; }
    PlaxtonMesh &mesh() { return *mesh_; }
    BloomLocationService &bloomLocator() { return *bloom_; }
    ArchivalSystem &archival() { return *archive_; }

    /** Number of secondary servers. */
    std::size_t numServers() const { return cfg_.numServers; }

    /** The secondary-tier overlay topology (positions + adjacency). */
    const Topology &topology() const { return topo_; }

    // --- users and objects ---------------------------------------------

    /** Mint a user key pair. */
    KeyPair makeUser();

    /**
     * Create an object owned by @p owner: mints the handle, installs
     * the owner-signed ACL on all servers, places initialHosts
     * floating replicas on random servers, publishes them in both
     * location tiers and declares the object's replica set once
     * (DESIGN.md section 23).
     */
    ObjectHandle createObject(const KeyPair &owner,
                              const std::string &name);

    /** Grant @p writer_key write permission on @p handle's object. */
    void grantWrite(const ObjectHandle &handle, const KeyPair &owner,
                    const Bytes &writer_key);

    /**
     * Materialize a working group's roster into the object's ACL
     * (Section 4.2): every current member may write; expelled members
     * lose access on the next sync.  Call again after roster changes.
     */
    void syncGroupAcl(const ObjectHandle &handle, const KeyPair &owner,
                      const WorkingGroup &group);

    /** Server indices currently hosting @p obj. */
    std::vector<std::size_t> hosts(const Guid &obj) const;

    /**
     * Add a floating replica of @p obj on server @p idx (Create): it
     * is published at once and joins the object's replica set, then
     * catches up from its tree parent.  Until it has, reads served
     * there see an older committed version.
     */
    void addHost(const Guid &obj, std::size_t idx);

    /**
     * Remove the floating replica of @p obj from server @p idx
     * (Retire): unpublished first, then its state for the object is
     * dropped and the object's tree rebuilt.
     */
    void removeHost(const Guid &obj, std::size_t idx);

    // --- the update path -------------------------------------------------

    /** Submit an update; @p done fires when the tier answers. */
    void write(const Update &u, std::function<void(WriteResult)> done);

    /** Submit and run the simulation until the result arrives. */
    WriteResult writeSync(const Update &u);

    // --- the read path ---------------------------------------------------

    /**
     * Read @p obj starting at server @p from_server: probabilistic
     * location first, global mesh on miss; @p done is scheduled after
     * the modeled location + fetch latency.  A read entered at a down
     * server starts instead at the nearest live one, one modeled hop
     * away.
     */
    void read(std::size_t from_server, const Guid &obj,
              std::function<void(ReadResult)> done);

    /** Read and run the simulation until the result arrives. */
    ReadResult readSync(std::size_t from_server, const Guid &obj);

    // --- durable storage & the crash/restart lifecycle ------------------

    /** Server @p idx's durable storage handle (disk + log store). */
    NodeStorage &storageOf(std::size_t idx);

    /** Primary-tier replica @p rank's durable storage handle. */
    NodeStorage &primaryStorage(unsigned rank);

    /**
     * Crash secondary server @p idx: its network links go down, the
     * disk-fault injector applies the configured crash plan (torn
     * tail, bit flips) to its image, and every in-memory view of its
     * durable state — the log's index, the mesh pointer cache — dies
     * with the process.  Its archival fragments are log records on
     * the surviving disk: the crash frees none of them.
     */
    void crashServer(std::size_t idx);

    /**
     * Restart server @p idx: recovery replay over the (possibly
     * damaged) image, then re-serve — archival fragments straight
     * from the replayed "frag/" records (nothing is reloaded), mesh
     * pointers from "ptr/", and the floating replicas it hosts
     * republished in Guid order.
     */
    void restartServer(std::size_t idx);

    /** Crash primary-tier replica @p rank (its object state dies). */
    void crashPrimary(unsigned rank);

    /** Restart primary-tier replica @p rank: replays its durable
     *  "ulog/" commit log through the executor. */
    void restartPrimary(unsigned rank);

    /**
     * NodeLifecycle (sim/churn.h): failure injectors route node
     * transitions here so link state and storage stay symmetric.
     * NodeIds of secondary servers and their co-located archival
     * servers map to crashServer/restartServer; primary replicas to
     * crashPrimary/restartPrimary; anything else falls back to raw
     * link state.
     */
    void shutdown(NodeId n) override;
    void restart(NodeId n) override;

    // --- archival ---------------------------------------------------------

    /**
     * Snapshot the object's current committed state into the archive
     * (fragment + disperse).  Returns the archival version's GUID, or
     * an invalid GUID (recording nothing) when every archival server
     * is down.
     */
    Guid archiveObject(const Guid &obj);

    /** Latest archival GUID for an object (invalid if never archived). */
    Guid latestArchive(const Guid &obj) const;

    /** Reconstruct an archival version; runs the sim until done. */
    ReconstructResult restoreSync(const Guid &archive_guid);

    // --- versioning (Sections 2 and 4.5) -------------------------------

    /** All archived (version, archive GUID) pairs for an object. */
    std::vector<std::pair<VersionNum, Guid>>
    archivedVersions(const Guid &obj) const;

    /**
     * Resolve a permanent version-qualified name to its archival
     * GUID (invalid Guid when that version was never archived or was
     * retired).  A name without a version resolves to the latest.
     */
    Guid resolveVersionedName(const VersionedName &name) const;

    /**
     * Read a historical version of an object by replaying the
     * committed update log on the primary tier ("permanent pointers
     * to information").
     */
    std::optional<DataObject> readVersion(const Guid &obj,
                                          VersionNum v) const;

    /** Modification history of an object (from the primary replica). */
    std::vector<VersionRecord> historyOf(const Guid &obj) const;

    /**
     * Apply a retention policy (Elephant-style, Section 2): retire
     * archival versions the policy does not retain.
     * @return number of versions retired.
     */
    unsigned applyRetention(const Guid &obj,
                            const RetentionPolicy &policy);

    // --- introspection -----------------------------------------------------

    /**
     * Reads the access window keeps between replica-management
     * epochs.  A fixed constant, not a config field: it bounds soft
     * state, and nothing tunes it.
     */
    static constexpr std::size_t kAccessWindow = 4096;

    /**
     * The cluster-recognition graph, first fed (inside execute()) the
     * reads in the access window it has not yet seen.  Only these
     * drains write it, so the caller may read it until the next one.
     */
    SemanticGraph &semanticGraph();

    /** The access-stream prefetcher, drained like semanticGraph(). */
    Prefetcher &prefetcher();

    /**
     * Confidence estimation over the system's own optimizations
     * (Section 4.7.2): replica creation is gated on the confidence of
     * kind "replica.create"; callers feed outcomes back with observed
     * before/after latencies.
     */
    ConfidenceEstimator &confidence() { return confidence_; }

    /**
     * Run one replica-management epoch over the access window: count
     * each replica's requests and each object's readers, create
     * replicas near overloaded hosts, retire disused ones, then clear
     * the window.  @return enacted actions.
     */
    std::vector<ReplicaAction> runReplicaManagementEpoch();

    /**
     * Collocate semantically clustered objects (Section 4.7.2: the
     * published cluster descriptors "help remote optimization modules
     * collocate and prefetch related files"): for every detected
     * cluster, every member object gains a floating replica on the
     * server already hosting the most cluster members.
     * @return number of replicas created.
     */
    unsigned collocateClusters(double min_weight);

    // --- observability -----------------------------------------------------

    /**
     * One-line JSON health report (DESIGN.md section 16): backend
     * kind, tier shape, and the runtime's live RuntimeStats.  The
     * snapshot is taken inside execute(), so it is consistent even
     * while the loop serves clients; the `runtime.*` gauges are
     * published as a side effect.  Deterministic byte layout on the
     * sim backend (fixed key order, %.12g doubles).
     */
    std::string statusReport();

    // --- simulation driving -------------------------------------------------

    /**
     * Step the simulator until @p pred holds or @p max_time elapses.
     * @return the final value of pred().
     */
    bool runUntil(const std::function<bool()> &pred, double max_time);

    /** Advance runtime time by @p seconds, processing events. */
    void advance(double seconds) { rt_->advance(seconds); }

  private:
    /** Build every tier against rt_ (runs inside execute()). */
    void assemble();

    /** Wire the executor / onCommit hooks into the PBFT cluster. */
    void wireCommitPath();

    /** Executor: validate against the ACL and apply to the replica. */
    Bytes executeUpdate(unsigned rank, const Bytes &payload,
                        std::uint64_t seq);

    /** Server index of the secondary replica at @p node, or
     *  invalidNode when @p node is no secondary replica. */
    std::size_t replicaIndexOf(NodeId node) const;

    /** Feed the window's records the analyzers have not yet seen, in
     *  read order, to semantic_ and prefetcher_ (loop thread only). */
    void drainAccesses();

    UniverseConfig cfg_;
    Rng rng_;
    /** Both modes own a simulator + network, wrapped by one Runtime
     *  of cfg_.runtime's kind. */
    std::unique_ptr<Simulator> sim_;
    std::unique_ptr<Network> net_;
    std::unique_ptr<Runtime> rt_;
    KeyRegistry registry_;

    Topology topo_;
    std::unique_ptr<SecondaryTier> tier_;
    std::unique_ptr<PlaxtonMesh> mesh_;
    std::unique_ptr<BloomLocationService> bloom_;
    std::unique_ptr<PbftCluster> pbft_;
    std::unique_ptr<PbftClient> client_;
    std::unique_ptr<ArchivalSystem> archive_;
    std::unique_ptr<ArchivalClient> archiveClient_;
    std::unique_ptr<ReedSolomonCode> archiveCodec_;

    /** Durable storage handles: one per secondary server (shared by
     *  its co-located archival server and mesh node) and one per
     *  primary-tier replica.  The handles — and the disk images they
     *  own — outlive crashes; only the log stores die. */
    std::vector<std::unique_ptr<NodeStorage>> serverStorage_;
    std::vector<std::unique_ptr<NodeStorage>> primaryStorage_;
    /** NodeId -> secondary server index (tier + archival NodeIds). */
    std::map<NodeId, std::size_t> serverIndexByNode_;
    /** NodeId -> primary-tier rank. */
    std::map<NodeId, unsigned> primaryRankByNode_;

    /** Primary-tier replica state: one object map per rank. */
    std::vector<std::map<Guid, DataObject>> primaryObjects_;
    /** The payload executeUpdate() last decoded, and its decode,
     *  which every primary replica's log shares. */
    Bytes lastPayload_;
    SharedUpdate lastDecoded_;
    /** The update rank 0's executeUpdate() last admitted and applied
     *  (null after a refusal); onCommit hands it to the tree. */
    SharedUpdate rank0Applied_;
    WriteGuard guard_;

    /** Archival snapshots per object, per version. */
    std::map<Guid, std::map<VersionNum, Guid>> archives_;

    /** One read as introspection sees it (Section 4.7.1: the small
     *  local record an event handler writes). */
    struct AccessRecord
    {
        Guid obj;
        std::uint32_t origin = 0;           //!< Server the read started at.
        std::uint32_t holder = invalidNode; //!< Server that served it, or
                                            //!< invalidNode on a miss.
    };

    /** Introspection state. */
    SemanticGraph semantic_;
    Prefetcher prefetcher_;
    ConfidenceEstimator confidence_;
    ReplicaManager replicaMgr_;
    /**
     * The access window: the last kAccessWindow reads since the last
     * epoch.  Read i (counted from that epoch) sits at
     * accesses_[i % kAccessWindow]; the vector grows to the cap, then
     * each read overwrites the oldest record.
     */
    std::vector<AccessRecord> accesses_;
    std::uint64_t accessCount_ = 0; //!< Reads since the last epoch.
    std::uint64_t accessesFed_ = 0; //!< Of those, drained to analyzers.
};

} // namespace oceanstore

#endif // OCEANSTORE_CORE_UNIVERSE_H
