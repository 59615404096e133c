/**
 * @file
 * Deep archival storage (Section 4.5).
 *
 * Archival versions of objects are erasure-coded and the fragments
 * spread over many servers; any sufficiently large subset
 * reconstructs the data.  This module implements the full pipeline:
 *
 *  - dispersal: fragments placed across *administrative domains*,
 *    ranked by reliability, avoiding locations with high correlated
 *    failure probability;
 *  - reconstruction: "we can make use of excess capacity to insulate
 *    ourselves from slow servers by requesting more fragments than we
 *    absolutely need" — the request over-factor of the Section 5
 *    finding that extra requests pay off under drops;
 *  - repair: background sweeps that count surviving fragments and
 *    restore redundancy when servers are permanently lost;
 *  - audit: a LOCKSS-style rate-limited sampled integrity pass
 *    (PAPERS.md) that draws k random (archive, fragment) pairs per
 *    sweep, re-verifies each stored copy against its Merkle/SHA-1
 *    proof, and restores any mismatching or missing fragment from the
 *    surviving verified set — capped by a per-sim-time-window sample
 *    budget so a Byzantine storage tier cannot stampede the auditor
 *    into unbounded repair traffic.
 */

#ifndef OCEANSTORE_ARCHIVE_ARCHIVAL_H
#define OCEANSTORE_ARCHIVE_ARCHIVAL_H

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "erasure/fragment.h"
#include "runtime/rpc.h"
#include "runtime/runtime.h"
#include "storage/node_storage.h"
#include "util/random.h"

namespace oceanstore {

/**
 * LOCKSS-style sampled-audit tunables: "sample k fragments per
 * sweep, never more than the window budget per window" — the rate
 * limit is the defense against adversarial peers baiting the auditor
 * into repair storms.
 */
struct ArchiveAuditConfig
{
    /** Fragments sampled (verified) per sweep. */
    unsigned samplesPerSweep = 8;
    /** Seconds between periodic sweeps (startAudit()). */
    double sweepPeriod = 2.0;
    /** Length of one budget window, in simulated seconds. */
    double budgetWindow = 10.0;
    /** Max sampled verifications charged to one window; draws beyond
     *  the cap are deferred to a later sweep, never skipped silently. */
    unsigned windowBudget = 32;
    /** Seed for sample selection (independent of dispersal RNG). */
    std::uint64_t seed = 0xa0d175u;
};

/** Tunables for the archival subsystem. */
struct ArchiveConfig
{
    /**
     * Fragments requested = ceil(overfactor * k); values > 1 trade
     * bandwidth for latency under request drops (Section 5).
     */
    double requestOverfactor = 1.5;
    /** Seconds before a reconstruction escalates to all holders. */
    double retryTimeout = 2.0;
    /** Seconds before a reconstruction gives up entirely. */
    double failTimeout = 10.0;
    /** Surviving-fragment floor that triggers repair. */
    unsigned repairThreshold = 0; //!< 0 = 1.5 * k (default).
    /** Sampled-audit tunables. */
    ArchiveAuditConfig audit;
};

/**
 * One storage server's archival state.  Its fragments live in one
 * place: the "frag/<archive hex>/<index>" records of the server's log
 * (DESIGN.md section 14).  There is no copy in RAM, so a crash frees
 * no fragment and a restart reloads none: the log's replay rebuilds
 * its index, and every reader (fragment requests, the repair sweep,
 * the audit, the corruption hooks) reads through it.
 */
class ArchivalServer : public SimNode
{
  public:
    ArchivalServer(class ArchivalSystem &sys, std::size_t index);

    void handleMessage(const Message &msg) override;

    /** Network id. */
    NodeId nodeId() const { return nodeId_; }

    /** Administrative domain this server belongs to. */
    unsigned domain() const { return domain_; }

    /** Number of fragments held: live "frag/" records in the log (0
     *  while crashed). */
    std::size_t fragmentCount() const;

    /**
     * True when the log holds a fragment of @p archive at @p index.
     * An index lookup that reads no record: a record rotted on the
     * medium still counts until a read rejects it.
     */
    bool holds(const Guid &archive, std::uint32_t index) const;

    /**
     * Read one held fragment: one checksum over its log record and
     * one copy of the payload, into the fragment's Blob.  nullopt
     * when it is not held, the server is crashed, or the record fails
     * its checksum (counted as storage.crc_errors) or does not decode.
     */
    std::optional<Fragment> fragment(const Guid &archive,
                                     std::uint32_t index);

    // --- durable storage (DESIGN.md section 14) -----------------------

    /** Attach this server's storage, its only fragment store (owned by
     *  the Universe, or by whoever built a standalone ArchivalSystem).
     *  Without one, or while it is crashed, the server holds nothing. */
    void attachStorage(NodeStorage *storage) { storage_ = storage; }

    /** Append @p fragment to the log, replacing any copy held.  A disk
     *  that refuses the write (storage.enospc) leaves it not held.
     *  @return true when the log took it. */
    bool storeFragment(const Fragment &fragment);

    /** Erase a fragment from the log. */
    void dropFragment(const Guid &archive, std::uint32_t index);

  private:
    friend class ArchivalSystem;

    /** Storage key of one fragment: "frag/<archive hex>/<index>". */
    static std::string fragmentKey(const Guid &archive,
                                   std::uint32_t index);

    /** Every held (archive, index), in that order.  The log orders
     *  keys as strings, so its index order ("/10" before "/2") is
     *  sorted back into numeric order. */
    std::vector<std::pair<Guid, std::uint32_t>> heldFragments() const;

    class ArchivalSystem &sys_;
    std::size_t index_;
    NodeId nodeId_ = invalidNode;
    unsigned domain_ = 0;
    double reliability_ = 1.0;
    NodeStorage *storage_ = nullptr;
};

/** Outcome of a reconstruction attempt. */
struct ReconstructResult
{
    bool success = false;
    Bytes data;
    double latency = 0.0;          //!< Request to decode time.
    unsigned fragmentsRequested = 0;
    unsigned fragmentsReceived = 0;
};

/** A client endpoint that can drive reconstructions. */
class ArchivalClient : public SimNode
{
  public:
    explicit ArchivalClient(class ArchivalSystem &sys);

    /**
     * Detaches from the network: straggler fragments from an
     * already-finished reconstruction may still be in flight to this
     * node, and must drop instead of dereferencing a dead endpoint.
     */
    ~ArchivalClient() override;

    void handleMessage(const Message &msg) override;

    /** Network id. */
    NodeId nodeId() const { return nodeId_; }

  private:
    friend class ArchivalSystem;

    struct PendingReconstruction
    {
        Guid archive;
        const ErasureCodec *codec = nullptr;
        std::size_t originalSize = 0;
        double startTime = 0.0;
        std::vector<Fragment> received;
        std::vector<bool> haveIndex;
        unsigned requested = 0;
        bool done = false;
        std::function<void(const ReconstructResult &)> callback;
        /** Bounded escalation driver: re-requests missing fragments
         *  every retryTimeout until decode succeeds or failTimeout. */
        std::unique_ptr<RpcCall> retry;
        /** Armed hard-timeout event: cancelled when the
         *  reconstruction finishes early. */
        EventId failTimer = invalidEventId;
    };

    void maybeFinish(std::uint64_t ticket);

    class ArchivalSystem &sys_;
    NodeId nodeId_ = invalidNode;
    std::uint64_t nextTicket_ = 1;
    std::unordered_map<std::uint64_t, PendingReconstruction> pending_;
};

/**
 * The archival subsystem: servers, placement metadata, dispersal,
 * reconstruction and repair sweeps.
 */
class ArchivalSystem
{
  public:
    /**
     * @param rt        runtime to register servers on
     * @param positions one (x, y) per server
     * @param domains   administrative domain of each server
     * @param cfg       tunables
     */
    ArchivalSystem(Runtime &rt,
                   const std::vector<std::pair<double, double>> &positions,
                   const std::vector<unsigned> &domains,
                   ArchiveConfig cfg = {});

    ~ArchivalSystem();

    /** Number of archival servers. */
    std::size_t size() const { return servers_.size(); }

    /** Server accessor. */
    ArchivalServer &server(std::size_t i) { return *servers_[i]; }

    /** Set a domain's reliability rank in [0, 1] (default 1). */
    void setDomainReliability(unsigned domain, double reliability);

    /** Create and register a reconstruction client at (x, y). */
    std::unique_ptr<ArchivalClient> makeClient(double x, double y);

    /**
     * Fragment @p data with @p codec and disperse the fragments:
     * round-robin across domains in decreasing reliability order so
     * no domain holds a correlated-failure-critical share.
     * @param source server index originating the store messages
     * @return the archival object's GUID
     */
    Guid disperse(const ErasureCodec &codec, const Bytes &data,
                  std::size_t source);

    /**
     * Reconstruct an archival object via @p client: requests
     * ceil(overfactor * k) fragments from the nearest holders,
     * escalating to every holder after retryTimeout.
     */
    void reconstruct(ArchivalClient &client, const Guid &archive,
                     std::function<void(const ReconstructResult &)> done);

    /** Count fragments of @p archive on currently-up servers. */
    unsigned survivingFragments(const Guid &archive) const;

    /**
     * Repair sweep (one pass): for every archive whose surviving
     * fragment count dropped below the threshold, reconstruct it
     * locally and re-disperse the missing fragments to fresh up
     * servers.  @return number of archives repaired.
     */
    unsigned repairSweep();

    /** Archive GUIDs known to the placement directory. */
    std::vector<Guid> archives() const;

    // --- adversarial corruption & sampled audit -----------------------

    /**
     * Adversary hook: corrupt the payload of stored fragments on
     * @p server (each with probability @p fraction, drawn in
     * (archive, index) order), leaving the Merkle proofs untouched so
     * every corrupted copy fails verify().  The adversary controls the
     * disk, so the corrupt record is written with a valid checksum:
     * the server keeps serving it, and honest clients and the auditor
     * must detect it.  @return fragments corrupted.
     */
    unsigned corruptServer(std::size_t server, Rng &rng,
                           double fraction = 1.0);

    /**
     * Adversary hook: corrupt the stored copy of one specific
     * fragment.  @return false when no such fragment is stored.
     */
    bool corruptFragment(const Guid &archive, std::uint32_t index);

    /** Stored fragments across all placements failing verification. */
    unsigned corruptedFragments() const;

    /** Outcome of one audit sweep. */
    struct AuditReport
    {
        unsigned sampled = 0;    //!< Verifications performed.
        unsigned mismatches = 0; //!< Corrupt, missing or downed copies.
        unsigned repaired = 0;   //!< Fragments restored from the set.
        unsigned deferred = 0;   //!< Draws pushed out by the budget cap.
    };

    /**
     * One rate-limited sampled audit pass: draw samplesPerSweep
     * uniform (archive, fragment index) pairs, re-verify each stored
     * copy, and restore any mismatch from the surviving verified
     * fragments.  Draws beyond the current window's budget are
     * deferred (counted, never silently dropped).
     */
    AuditReport auditSweep();

    /** Schedule periodic auditSweep() every audit.sweepPeriod. */
    void startAudit();

    /** Cancel the periodic audit timer (idempotent). */
    void stopAudit();

    /** Lifetime audit counters (all sweeps). */
    std::uint64_t auditSweeps() const { return auditSweeps_; }
    std::uint64_t auditSamples() const { return auditSamples_; }
    std::uint64_t auditMismatches() const { return auditMismatches_; }
    std::uint64_t auditRepairs() const { return auditRepairs_; }
    std::uint64_t auditDeferred() const { return auditDeferred_; }

    /** Most samples ever charged to a single budget window. */
    unsigned auditWindowPeak() const { return windowPeak_; }

    /**
     * Retire an archival version: drop its placement record and
     * instruct every holder to delete its fragment (run by the
     * responsible party when a retention policy retires a version).
     * @return true if the archive was known.
     */
    bool forget(const Guid &archive);

    /** The network. */
    Runtime &rt() { return rt_; }

    /** Configuration. */
    const ArchiveConfig &config() const { return cfg_; }

  private:
    friend class ArchivalServer;
    friend class ArchivalClient;

    struct Placement
    {
        const ErasureCodec *codec = nullptr;
        std::size_t originalSize = 0;
        /** fragment index -> server index. */
        std::vector<std::size_t> holders;
    };

    /** Every up server not in @p exclude, one group per domain,
     *  domains in decreasing reliability order. */
    std::vector<std::vector<std::size_t>>
    domainGroups(const std::vector<std::size_t> &exclude) const;

    /** domainGroups() in dispersal order: round-robin across the
     *  domains. */
    std::vector<std::size_t>
    dispersalOrder(const std::vector<std::size_t> &exclude) const;

    /**
     * The one repair path, for the sweep and the audit: decode
     * @p archive once from its verified surviving fragments, encode
     * once, and put back each index in @p missing.  An index goes to
     * its holder when that holder is up and its disk takes it;
     * otherwise to a server that holds no fragment of the archive and
     * whose disk takes it, in the domain holding the fewest of the
     * archive's live fragments (ties to the more reliable domain), and
     * the placement follows it.  @return indices restored.
     */
    unsigned repairFragments(const Guid &archive, Placement &placement,
                             const std::vector<std::uint32_t> &missing);

    /** (Re)arm the periodic audit timer. */
    void armAuditTimer();

    Runtime &rt_;
    ArchiveConfig cfg_;
    std::vector<std::unique_ptr<ArchivalServer>> servers_;
    std::map<unsigned, double> domainReliability_;
    std::map<Guid, Placement> placements_;

    /** Sampled-audit state: seeded draw stream, the periodic timer
     *  (cancelled by stopAudit()/the destructor), per-window budget
     *  bookkeeping and lifetime counters. */
    Rng auditRng_;
    EventId auditTimer_ = invalidEventId;
    double windowStart_ = 0.0;
    unsigned windowUsed_ = 0;
    unsigned windowPeak_ = 0;
    std::uint64_t auditSweeps_ = 0;
    std::uint64_t auditSamples_ = 0;
    std::uint64_t auditMismatches_ = 0;
    std::uint64_t auditRepairs_ = 0;
    std::uint64_t auditDeferred_ = 0;
};

} // namespace oceanstore

#endif // OCEANSTORE_ARCHIVE_ARCHIVAL_H
