/**
 * @file
 * Primary-tier Byzantine agreement (Sections 4.4.3-4.4.5).
 *
 * "We replace this master replica with a primary tier of replicas.
 * These replicas cooperate with one another in a Byzantine agreement
 * protocol to choose the final commit order for updates."  The
 * protocol follows Castro-Liskov PBFT [10]: request, pre-prepare,
 * prepare (all-to-all), commit (all-to-all), reply — tolerating m
 * faulty replicas out of n = 3m + 1.
 *
 * Byte accounting is the point: the simulated message flow realizes
 * the paper's cost model  b = c1*n^2 + (u + c2)*n + c3  (Figure 6),
 * with c1 ~ 100-byte agreement messages, the update body u carried
 * once to the leader and once per backup in pre-prepare, and signed
 * replies.  The benchmark measures b from the runtime's counters.
 */

#ifndef OCEANSTORE_CONSISTENCY_BYZANTINE_H
#define OCEANSTORE_CONSISTENCY_BYZANTINE_H

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "crypto/keys.h"
#include "runtime/rpc.h"
#include "runtime/runtime.h"
#include "storage/node_storage.h"
#include "util/check.h"
#include "util/retry.h"

namespace oceanstore {

/** Configuration for a primary tier. */
struct PbftConfig
{
    /** Faults tolerated; the tier has n = 3m + 1 replicas. */
    unsigned m = 1;
    /**
     * Client re-broadcast schedule: bounded exponential backoff with
     * deterministic jitter, starting 2 s after submission; ten
     * attempts spread over ~80 s ride out drop storms and a
     * partition/heal cycle without keeping the event queue alive
     * forever.
     */
    RetryPolicy clientRetry{2.0, 1.5, 12.0, 10, 0.05};
};

/** Fault behavior injected into a replica. */
enum class ReplicaFault
{
    None,      //!< Correct replica.
    Crash,     //!< Silent: ignores and sends nothing.
    Byzantine, //!< Sends corrupted digests in agreement messages.
};

/**
 * A serialization certificate assembled from replica replies.
 *
 * Section 4.4.4: "To allow for later, offline verification by a party
 * who did not participate in the protocol, we are exploring the use
 * of proactive signature techniques to certify the result of the
 * serialization process."  Our stand-in is a threshold certificate:
 * m+1 replica signatures over (sequence, result); any party holding
 * the tier's public keys can verify it offline — no protocol
 * participation, no trusted single signer.
 */
struct CommitCertificate
{
    std::uint64_t sequence = 0;
    Bytes result;
    /** (replica rank, signature over the canonical payload). */
    std::vector<std::pair<unsigned, Signature>> signatures;

    /** The byte string each signature covers: signedReply(). */
    Bytes signedPayload() const;

    /**
     * Offline verification: at least @p need distinct-ranked valid
     * signatures under the tier's published keys.
     */
    bool verify(const KeyRegistry &registry,
                const std::vector<Bytes> &tier_public_keys,
                unsigned need) const;
};

/**
 * Outcome delivered to the client when its update serializes — or
 * when the bounded rebroadcast schedule exhausts without a quorum of
 * matching replies.  In the latter case @c completed is false and the
 * outcome is ambiguous: the request may still commit later, so the
 * caller must not assume it was rejected.
 */
struct PbftOutcome
{
    Guid requestId;
    bool completed = true;      //!< Quorum of replies arrived.
    std::uint64_t sequence = 0; //!< Final commit order position.
    Bytes result;               //!< State-machine execution result.
    double latency = 0.0;       //!< Submit-to-quorum-of-replies time.
    CommitCertificate certificate; //!< Offline-verifiable evidence.
};

/**
 * The bytes a replica signs in its reply to the client: (sequence,
 * result).  Replicas sign them, clients verify them and a
 * CommitCertificate covers them.
 */
Bytes signedReply(std::uint64_t seq, const Bytes &result);

/** Durable update-log key "ulog/<seq>", the sequence zero-padded to 20
 *  digits so a lexicographic "ulog/" scan replays in sequence order. */
std::string updateLogKey(std::uint64_t seq);

/** Parse an updateLogKey().  nullopt for any other key. */
std::optional<std::uint64_t> parseUpdateLogKey(std::string_view key);

class PbftCluster;

/**
 * A client endpoint: submits requests and collects m+1 matching
 * replies.  Register on the same Runtime as the cluster.
 */
class PbftClient : public SimNode
{
  public:
    PbftClient(PbftCluster &cluster, std::uint64_t client_id);

    /**
     * Submit an opaque command.  @p done fires when m+1 matching
     * replies arrive.  Requests are processed concurrently.  The
     * payload is copied once into a Blob that the request, its
     * retransmissions and every replica's slot share.
     */
    void submit(const Bytes &payload,
                std::function<void(const PbftOutcome &)> done);

    void handleMessage(const Message &msg) override;

    /** Network id (set when the cluster registers the client). */
    NodeId nodeId() const { return nodeId_; }

    /** Total retry broadcasts issued across all requests (the chaos
     *  suite asserts this stays bounded). */
    std::uint64_t retryAttempts() const { return retryAttempts_; }

    /** Requests still waiting for a quorum: each is forgotten once it
     *  completes or gives up. */
    std::size_t pendingCount() const { return pending_.size(); }

  private:
    friend class PbftCluster;

    struct Vote
    {
        std::uint64_t seq = 0;
        Guid resultHash;
        Signature signature;
    };

    /** A submitted request, erased once it completes or gives up. */
    struct PendingRequest
    {
        Blob payload;
        double submitTime = 0.0;
        std::function<void(const PbftOutcome &)> done;
        /** rank -> verified reply vote. */
        std::map<unsigned, Vote> votes;
        /** Bounded re-broadcast driver; quorum calls succeed(). */
        std::unique_ptr<RpcCall> retry;
    };

    PbftCluster &cluster_;
    std::uint64_t clientId_;
    NodeId nodeId_ = invalidNode;
    std::uint64_t retryAttempts_ = 0;
    /** Requests submitted so far: salts each request id. */
    std::uint64_t submitted_ = 0;
    std::unordered_map<Guid, PendingRequest> pending_;
};

/**
 * One replica of the primary tier.  Created and owned by PbftCluster.
 */
class PbftReplica : public SimNode
{
  public:
    PbftReplica(PbftCluster &cluster, unsigned rank);

    void handleMessage(const Message &msg) override;

    /** Inject a fault mode (for the fault-tolerance tests). */
    void setFault(ReplicaFault f) { fault_ = f; }

    /** This replica's position in the tier. */
    unsigned rank() const { return rank_; }

    /** Network id. */
    NodeId nodeId() const { return nodeId_; }

    /** Number of requests executed. */
    std::uint64_t executedCount() const { return executedCount_; }

    /** Current view number. */
    unsigned view() const { return view_; }

    /**
     * Attach this replica's durable storage handle (DESIGN.md section
     * 14; owned by the Universe).  While it runs, every executed
     * commit is written through as a "ulog/<seq>" record.  Null (the
     * default) leaves a standalone replica with no durable state.
     */
    void attachStorage(NodeStorage *storage) { storage_ = storage; }

    /**
     * Crash-restart recovery (DESIGN.md section 14): replay the
     * durable committed-update log ("ulog/" records written through
     * the attached storage at execution time) through the
     * executor in sequence order, rebuilding the application state
     * behind this replica and advancing lastExecuted / nextSeq past
     * the recovered prefix.  The caller owns clearing the application
     * state first; protocol state for in-flight slots is not restored
     * — un-executed updates are re-proposed by clients, exactly like
     * updates lost to an ordinary crash.
     * @return committed records replayed.
     */
    std::uint64_t restoreFromLog();

  private:
    friend class PbftCluster;

    /**
     * Everything this replica knows about one client request (DESIGN.md
     * section 21).  Ordered by id: view changes walk the table, and a
     * new leader re-proposes in that order, which feeds message
     * emission and must be deterministic.
     */
    struct Request
    {
        Blob payload;
        NodeId client = invalidNode;
        /** Sequence this replica assigned as leader; 0 = unassigned. */
        std::uint64_t assignedSeq = 0;
        /** Sequence it executed at (0 = not yet) and the result, for
         *  re-replies and duplicate re-proposals. */
        std::uint64_t executedSeq = 0;
        Bytes result;
        /** Armed view-change timer while this backup waits for the
         *  request's pre-prepare. */
        EventId timer = invalidEventId;
    };
    using RequestTable = std::map<Guid, Request>;

    /** One sequence number's log entry. */
    struct Slot
    {
        Guid digest;
        /** The pre-prepared (id, request); null until a pre-prepare. */
        RequestTable::value_type *request = nullptr;
        /** rank -> digest voted, whenever the vote arrived; a vote
         *  counts once it equals the pre-prepare's digest. */
        std::map<unsigned, Guid> prepares;
        std::map<unsigned, Guid> commits;
        bool sentCommit = false;
        bool executed = false;
    };

    bool isLeader() const;
    void onRequest(const Message &msg);
    void onPrePrepare(const Message &msg);
    /** A prepare (@p commit false) or commit vote. */
    void onVote(const Message &msg, bool commit);
    void onViewChange(const Message &msg);
    void onNewView(const Message &msg);
    /** Adopt view @p v: drop the old view's unexecuted slots, the
     *  assignments of unexecuted requests and every failure timer. */
    void enterView(unsigned v);
    void assignAndPrePrepare(RequestTable::value_type &entry);
    void tryCommit(std::uint64_t seq);
    void executeReady();
    void startViewChangeTimer(RequestTable::value_type &entry);
    Guid maybeCorrupt(const Guid &digest) const;

    PbftCluster &cluster_;
    unsigned rank_;
    NodeId nodeId_ = invalidNode;
    ReplicaFault fault_ = ReplicaFault::None;
    NodeStorage *storage_ = nullptr;

    unsigned view_ = 0;
    std::uint64_t nextSeq_ = 1;      //!< Leader's next sequence number.
    std::uint64_t lastExecuted_ = 0;
    std::uint64_t executedCount_ = 0;
    std::map<std::uint64_t, Slot> slots_;
    /** Every request this replica has seen, by id. */
    RequestTable requests_;
    /** Pending view-change votes: newView -> voter ranks. */
    std::map<unsigned, std::set<unsigned>> viewVotes_;
};

/**
 * The primary tier: creates, registers and wires n = 3m + 1 replicas.
 *
 * The application provides an executor invoked on every replica in
 * final commit order — in OceanStore this applies the update to the
 * replica's DataObject and kicks off archival fragment generation
 * (Section 4.4.4).
 */
class PbftCluster
{
  public:
    /**
     * @param rt         runtime to register replicas on
     * @param positions  one (x, y) per replica; size must be 3m+1
     * @param registry   signature oracle shared with clients
     * @param cfg        protocol tunables
     */
    PbftCluster(Runtime &rt,
                const std::vector<std::pair<double, double>> &positions,
                KeyRegistry &registry, PbftConfig cfg = {});

    /** Number of replicas n = 3m + 1. */
    unsigned size() const { return static_cast<unsigned>(replicas_.size()); }

    /** Faults tolerated. */
    unsigned faultTolerance() const { return cfg_.m; }

    /** Replica by rank. */
    PbftReplica &
    replica(unsigned rank)
    {
        OS_CHECK(rank < replicas_.size(), "PbftCluster::replica(",
                 rank, ") of ", replicas_.size());
        return *replicas_[rank];
    }

    /** Create and register a client endpoint at (x, y). */
    std::unique_ptr<PbftClient> makeClient(double x, double y,
                                           std::uint64_t client_id);

    /**
     * Executor invoked on each replica in commit order.
     * Arguments: replica rank, command payload, sequence number.
     * Returns the execution result included in the reply.
     */
    std::function<Bytes(unsigned, const Bytes &, std::uint64_t)> executor;

    /**
     * Hook invoked once per commit (by the rank-0 replica's
     * execution) — OceanStore uses it to push the committed update
     * down the dissemination tree and to archival storage.
     */
    std::function<void(const Blob &, std::uint64_t)> onCommit;

    /** The network (for latency-free helpers and counters). */
    Runtime &rt() { return rt_; }

    /** Protocol configuration. */
    const PbftConfig &config() const { return cfg_; }

    /** Signing keys of replica @p rank (results are signed). */
    const KeyPair &keyOf(unsigned rank) const { return keys_[rank]; }

    /** The tier's published public keys (for offline verification). */
    std::vector<Bytes> publicKeys() const;

    /** The shared signature oracle. */
    KeyRegistry &registry() { return registry_; }

  private:
    friend class PbftReplica;
    friend class PbftClient;

    /** Node ids of every replica except @p except (pass invalidNode
     *  to get all of them) — fan-out list for Runtime::multicast(). */
    std::vector<NodeId> replicaNodeIds(NodeId except) const;

    Runtime &rt_;
    PbftConfig cfg_;
    KeyRegistry &registry_;
    std::vector<std::unique_ptr<PbftReplica>> replicas_;
    std::vector<KeyPair> keys_;
};

/** Wire sizes of the small agreement messages (the paper's c1/c2). */
constexpr std::size_t pbftControlBytes = 60;   // + 40B header ~= c1
constexpr std::size_t pbftReplyExtraBytes = 24;

} // namespace oceanstore

#endif // OCEANSTORE_CONSISTENCY_BYZANTINE_H
