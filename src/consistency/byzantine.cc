#include "consistency/byzantine.h"

#include <algorithm>
#include <charconv>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace oceanstore {

namespace {

/** Seconds a backup waits for a pre-prepare before view change. */
constexpr double viewChangeTimeout = 3.0;

/** Interned metric ids, registered once on first use. */
struct PbftMetricIds
{
    MetricsRegistry *reg;
    MetricsRegistry::Id submits, clientRetries, clientGiveups,
        commits, viewChangeVotes, viewChanges, preprepareRetransmits,
        commitRetransmits;

    PbftMetricIds()
        : reg(&MetricsRegistry::global()),
          submits(reg->counter("pbft.client_submits")),
          clientRetries(reg->counter("pbft.client_retries")),
          clientGiveups(reg->counter("pbft.client_giveups")),
          commits(reg->counter("pbft.commits")),
          viewChangeVotes(reg->counter("pbft.view_change_votes")),
          viewChanges(reg->counter("pbft.view_changes")),
          preprepareRetransmits(
              reg->counter("pbft.preprepare_retransmits")),
          commitRetransmits(reg->counter("pbft.commit_retransmits"))
    {
    }
};

/** Bump the PBFT counter @p id names. */
void
bump(MetricsRegistry::Id PbftMetricIds::*id)
{
    static PbftMetricIds ids;
    ids.reg->inc(ids.*id);
}

/** Internal message bodies. */
struct ReqBody
{
    Blob payload;
    Guid requestId;
    NodeId client;
    bool retry = false;
};

struct PrePrepareBody
{
    unsigned view;
    std::uint64_t seq;
    Guid digest;
    Blob payload;
    Guid requestId;
    NodeId client;
};

struct VoteBody
{
    unsigned view;
    std::uint64_t seq;
    Guid digest;
    unsigned rank;
};

struct ReplyBody
{
    std::uint64_t seq;
    Guid requestId;
    Bytes result;
    unsigned rank;
    Signature sig;
};

struct ViewChangeBody
{
    unsigned newView;
    unsigned rank;
};

struct NewViewBody
{
    unsigned newView;
};

/** Votes in @p votes (rank -> digest) for @p digest. */
std::size_t
votesFor(const std::map<unsigned, Guid> &votes, const Guid &digest)
{
    return static_cast<std::size_t>(
        std::count_if(votes.begin(), votes.end(),
                      [&](const auto &v) { return v.second == digest; }));
}

constexpr std::string_view updateLogPrefix = "ulog/";
constexpr std::size_t updateLogDigits = 20;

} // namespace

Bytes
signedReply(std::uint64_t seq, const Bytes &result)
{
    ByteWriter w;
    w.putU64(seq);
    w.putBlob(result);
    return w.take();
}

std::string
updateLogKey(std::uint64_t seq)
{
    std::string digits = std::to_string(seq);
    return std::string(updateLogPrefix) +
           std::string(updateLogDigits - digits.size(), '0') + digits;
}

std::optional<std::uint64_t>
parseUpdateLogKey(std::string_view key)
{
    if (key.size() != updateLogPrefix.size() + updateLogDigits ||
        !key.starts_with(updateLogPrefix))
        return std::nullopt;
    std::uint64_t seq = 0;
    const char *end = key.data() + key.size();
    auto [ptr, ec] =
        std::from_chars(key.data() + updateLogPrefix.size(), end, seq);
    if (ec != std::errc() || ptr != end)
        return std::nullopt;
    return seq;
}

// ---------------------------------------------------------------------
// CommitCertificate
// ---------------------------------------------------------------------

Bytes
CommitCertificate::signedPayload() const
{
    return signedReply(sequence, result);
}

bool
CommitCertificate::verify(const KeyRegistry &registry,
                          const std::vector<Bytes> &tier_public_keys,
                          unsigned need) const
{
    Bytes payload = signedPayload();
    std::set<unsigned> valid_ranks;
    for (const auto &[rank, sig] : signatures) {
        if (rank >= tier_public_keys.size())
            continue;
        if (registry.verify(tier_public_keys[rank], payload, sig))
            valid_ranks.insert(rank);
    }
    return valid_ranks.size() >= need;
}

// ---------------------------------------------------------------------
// PbftClient
// ---------------------------------------------------------------------

PbftClient::PbftClient(PbftCluster &cluster, std::uint64_t client_id)
    : cluster_(cluster), clientId_(client_id)
{
}

void
PbftClient::submit(const Bytes &payload,
                   std::function<void(const PbftOutcome &)> done)
{
    // Root span of the update's causal chain: the request send, every
    // agreement round it triggers and the dissemination push all
    // become (transitive) children of this span.
    ScopedSpan span("pbft", "client.submit",
                    cluster_.rt().now(), nodeId_);
    bump(&PbftMetricIds::submits);
    // Request ids must be unique even for identical payloads, so the
    // hash covers the client id and a per-client counter.
    ByteWriter w;
    w.putU64(clientId_);
    w.putU64(++submitted_);
    w.putU64(cluster_.rt().uniqueStamp());
    w.putBlob(payload);
    Guid req_id = Guid::hashOf(w.buffer());

    PendingRequest &pr = pending_[req_id];
    pr.payload = Blob(payload);
    pr.submitTime = cluster_.rt().now();
    pr.done = std::move(done);
    ReqBody body{pr.payload, req_id, nodeId_, false};

    Message m = makeMessage("pbft.request", body,
                            payload.size() + Guid::numBytes + 8);
    // Under ideal circumstances updates flow directly from the client
    // to the primary tier (Section 4.4.4): the full body goes to the
    // current leader (rank 0 from the client's point of view).
    cluster_.rt().send(nodeId_, cluster_.replica(0).nodeId(), m);

    // Retry: while no quorum arrives, periodically broadcast to all
    // replicas — this triggers forwarding (and eventually view
    // changes) and lets stalled requests land once a partition heals.
    // The leader send above is attempt 1; the RpcCall drives bounded
    // backoff re-broadcasts until a reply quorum calls succeed().
    pr.retry = std::make_unique<RpcCall>(
        cluster_.rt(), cluster_.config().clientRetry,
        req_id.hash64() ^ clientId_);
    pr.retry->arm([this, req_id](unsigned) {
        auto it = pending_.find(req_id);
        if (it == pending_.end())
            return;
        retryAttempts_++;
        bump(&PbftMetricIds::clientRetries);
        ReqBody rb{it->second.payload, req_id, nodeId_, true};
        Message rm = makeMessage(
            "pbft.request", rb,
            it->second.payload.size() + Guid::numBytes + 8);
        cluster_.rt().multicast(
            nodeId_, cluster_.replicaNodeIds(invalidNode),
            std::move(rm));
    }, [this, req_id]() {
        // Rebroadcast schedule exhausted without a quorum.  A real
        // PBFT client would retransmit forever; this one surrenders
        // the ambiguity to the caller instead of hanging its callback
        // for eternity — the request may still commit server-side.
        auto it = pending_.find(req_id);
        if (it == pending_.end())
            return;
        bump(&PbftMetricIds::clientGiveups);
        PbftOutcome out;
        out.requestId = req_id;
        out.completed = false;
        out.latency =
            cluster_.rt().now() - it->second.submitTime;
        // Forget the request (its RpcCall included, which the
        // exhausted callback may destroy) before the callback, which
        // may re-enter submit().
        auto done = std::move(it->second.done);
        pending_.erase(it);
        if (done)
            done(out);
    });
}

void
PbftClient::handleMessage(const Message &msg)
{
    if (msg.type != "pbft.reply")
        return;
    const auto &body = messageBody<ReplyBody>(msg);
    auto it = pending_.find(body.requestId);
    if (it == pending_.end())
        return;

    // Verify the replica's signature over (seq, result).
    if (!cluster_.registry().verify(cluster_.keyOf(body.rank).publicKey,
                                    signedReply(body.seq, body.result),
                                    body.sig)) {
        return; // forged or corrupted reply
    }

    PendingRequest &pr = it->second;
    const Guid rhash = Guid::hashOf(body.result);
    pr.votes[body.rank] = Vote{body.seq, rhash, body.sig};
    // Count matching (seq, result) votes from distinct ranks; they
    // double as the signature shares of the commit certificate.
    auto matches = [&](const Vote &v) {
        return v.seq == body.seq && v.resultHash == rhash;
    };
    unsigned count = 0;
    for (const auto &[rank, vote] : pr.votes)
        count += matches(vote);
    if (count < cluster_.faultTolerance() + 1)
        return;

    pr.retry->succeed();
    PbftOutcome out;
    out.requestId = it->first;
    out.sequence = body.seq;
    out.result = body.result;
    out.latency = cluster_.rt().now() - pr.submitTime;
    out.certificate.sequence = body.seq;
    out.certificate.result = body.result;
    for (const auto &[rank, vote] : pr.votes) {
        if (matches(vote))
            out.certificate.signatures.emplace_back(rank, vote.signature);
    }
    // Forget the request before the callback, which may re-enter
    // submit(); a late reply then finds nothing.
    auto done = std::move(pr.done);
    pending_.erase(it);
    if (done)
        done(out);
}

// ---------------------------------------------------------------------
// PbftReplica
// ---------------------------------------------------------------------

PbftReplica::PbftReplica(PbftCluster &cluster, unsigned rank)
    : cluster_(cluster), rank_(rank)
{
}

bool
PbftReplica::isLeader() const
{
    return rank_ == view_ % cluster_.size();
}

Guid
PbftReplica::maybeCorrupt(const Guid &digest) const
{
    if (fault_ != ReplicaFault::Byzantine)
        return digest;
    // A byzantine replica votes for a digest nobody proposed.
    return digest.withSalt(0xbad);
}

void
PbftReplica::handleMessage(const Message &msg)
{
    if (fault_ == ReplicaFault::Crash)
        return;

    if (msg.type == "pbft.request")
        onRequest(msg);
    else if (msg.type == "pbft.preprepare")
        onPrePrepare(msg);
    else if (msg.type == "pbft.prepare")
        onVote(msg, false);
    else if (msg.type == "pbft.commit")
        onVote(msg, true);
    else if (msg.type == "pbft.viewchange")
        onViewChange(msg);
    else if (msg.type == "pbft.newview")
        onNewView(msg);
}

void
PbftReplica::assignAndPrePrepare(RequestTable::value_type &entry)
{
    // Span for the leader's ordering step; the pre-prepare multicast
    // becomes its child.
    ScopedSpan span("pbft", "pbft.assign", cluster_.rt().now(),
                    nodeId_);
    auto &[req_id, req] = entry;
    std::uint64_t seq = nextSeq_++;
    req.assignedSeq = seq;

    Slot &slot = slots_[seq];
    slot.digest = Guid::hashOf(req.payload);
    slot.request = &entry;

    PrePrepareBody body{view_, seq, slot.digest, req.payload, req_id,
                        req.client};
    Message m = makeMessage("pbft.preprepare", body,
                            req.payload.size() + pbftControlBytes);
    cluster_.rt().multicast(nodeId_, cluster_.replicaNodeIds(nodeId_),
                             std::move(m));
    // The leader's own prepare is implicit in the pre-prepare.
    slot.prepares[rank_] = slot.digest;
    tryCommit(seq);
}

void
PbftReplica::onRequest(const Message &msg)
{
    const auto &body = messageBody<ReqBody>(msg);

    auto [it, fresh] = requests_.try_emplace(body.requestId);
    Request &req = it->second;
    if (fresh) {
        req.payload = body.payload;
        req.client = body.client;
    }
    if (req.executedSeq != 0) {
        // Already executed: re-reply directly.
        ReplyBody rb{req.executedSeq, body.requestId, req.result, rank_,
                     KeyRegistry::sign(
                         cluster_.keyOf(rank_),
                         signedReply(req.executedSeq, req.result))};
        Message rm = makeMessage("pbft.reply", rb,
                                 rb.result.size() + signatureWireSize +
                                     pbftReplyExtraBytes);
        cluster_.rt().send(nodeId_, body.client, rm);
        if (!body.retry || !isLeader())
            return;
    }

    if (isLeader()) {
        if (req.assignedSeq == 0) {
            if (req.executedSeq == 0)
                assignAndPrePrepare(*it);
        } else if (body.retry) {
            // Assigned but stalled: retransmit the pre-prepare.
            // Without within-view retransmission a single dropped
            // control message stalls the slot until a view change,
            // and view changes restart everyone's work.
            // The leader may have executed the slot while backups
            // that lost commit votes have not: a retry means the client
            // still lacks m+1 replies.
            auto sit = slots_.find(req.assignedSeq);
            if (sit != slots_.end()) {
                const Slot &slot = sit->second;
                const Request &held = slot.request->second;
                PrePrepareBody pp{view_, req.assignedSeq, slot.digest,
                                  held.payload, body.requestId,
                                  held.client};
                Message m = makeMessage("pbft.preprepare", pp,
                                        held.payload.size() +
                                            pbftControlBytes);
                bump(&PbftMetricIds::preprepareRetransmits);
                cluster_.rt().multicast(
                    nodeId_, cluster_.replicaNodeIds(nodeId_),
                    std::move(m));
            }
        }
        return;
    }

    if (body.retry) {
        // Forward to the leader we believe in and arm a view-change
        // timer in case that leader is dead.
        Message fwd = msg;
        cluster_.rt().send(
            nodeId_,
            cluster_.replica(view_ % cluster_.size()).nodeId(), fwd);
        startViewChangeTimer(*it);
    }
}

void
PbftReplica::startViewChangeTimer(RequestTable::value_type &entry)
{
    if (entry.second.timer != invalidEventId)
        return;
    unsigned armed_view = view_;
    // Timeouts grow with the view number (Castro-Liskov): under heavy
    // message loss successive view changes otherwise fire faster than
    // any view can finish its work, and the group thrashes forever.
    double delay = viewChangeTimeout *
                   static_cast<double>(1u << std::min(view_, 4u));
    entry.second.timer = cluster_.rt().schedule(
        delay, [this, &req = entry.second, armed_view]() {
            req.timer = invalidEventId;
            if (fault_ == ReplicaFault::Crash)
                return;
            if (req.executedSeq != 0 || view_ != armed_view)
                return;
            // The leader failed us: vote to move to the next view.
            bump(&PbftMetricIds::viewChangeVotes);
            ViewChangeBody vc{view_ + 1, rank_};
            Message m = makeMessage("pbft.viewchange", vc,
                                    pbftControlBytes);
            onViewChange(m); // deliver own vote directly
            cluster_.rt().multicast(
                nodeId_, cluster_.replicaNodeIds(nodeId_),
                std::move(m));
        });
}

void
PbftReplica::onPrePrepare(const Message &msg)
{
    const auto &body = messageBody<PrePrepareBody>(msg);
    if (body.view != view_)
        return;

    Slot &slot = slots_[body.seq];
    if (slot.request && slot.digest != body.digest)
        return; // conflicting pre-prepare; ignore
    auto [it, fresh] = requests_.try_emplace(body.requestId);
    Request &req = it->second;
    if (fresh) {
        req.payload = body.payload;
        req.client = body.client;
    } else if (!(req.payload == body.payload)) {
        return; // a second payload under one request id; ignore
    }
    const bool had_preprepare = slot.request != nullptr;
    slot.digest = body.digest;
    slot.request = &*it;
    if (body.seq >= nextSeq_)
        nextSeq_ = body.seq + 1;

    // Cancel any view-change timer for this request, unless this is a
    // retransmission of a pre-prepare already held: a backup stuck
    // behind an earlier slot still needs the view change.
    if (req.timer != invalidEventId && !had_preprepare) {
        cluster_.rt().cancel(req.timer);
        req.timer = invalidEventId;
    }

    bool had_committed = slot.sentCommit;
    VoteBody vote{view_, body.seq, maybeCorrupt(body.digest), rank_};
    Message m = makeMessage("pbft.prepare", vote, pbftControlBytes);
    cluster_.rt().multicast(nodeId_, cluster_.replicaNodeIds(nodeId_),
                             std::move(m));
    slot.prepares[rank_] = slot.digest;
    // The leader's prepare is implicit in its pre-prepare (PBFT):
    // count it so quorums survive m crashed backups.
    slot.prepares[view_ % cluster_.size()] = slot.digest;
    tryCommit(body.seq);
    if (had_committed) {
        // Retransmitted pre-prepare and we had already committed:
        // our earlier commit may be what the stalled peers lost.
        VoteBody cv{view_, body.seq, maybeCorrupt(slot.digest), rank_};
        Message cm = makeMessage("pbft.commit", cv, pbftControlBytes);
        bump(&PbftMetricIds::commitRetransmits);
        cluster_.rt().multicast(nodeId_,
                                 cluster_.replicaNodeIds(nodeId_),
                                 std::move(cm));
    }
}

void
PbftReplica::onVote(const Message &msg, bool commit)
{
    const auto &body = messageBody<VoteBody>(msg);
    if (body.view != view_)
        return;
    Slot &slot = slots_[body.seq];
    if (slot.request && body.digest != slot.digest)
        return; // mismatched digest (byzantine voter)
    (commit ? slot.commits : slot.prepares)[body.rank] = body.digest;
    if (!slot.request)
        return; // counted once the pre-prepare supplies the digest
    if (commit)
        executeReady();
    else
        tryCommit(body.seq);
}

void
PbftReplica::tryCommit(std::uint64_t seq)
{
    Slot &slot = slots_[seq];
    // prepared == pre-prepare + 2m matching prepares (including own).
    if (!slot.request || slot.sentCommit)
        return;
    if (votesFor(slot.prepares, slot.digest) <
        2 * cluster_.faultTolerance() + 1)
        return;

    slot.sentCommit = true;
    // Span for the prepared->commit transition; the commit multicast
    // becomes its child.
    ScopedSpan span("pbft", "pbft.trycommit",
                    cluster_.rt().now(), nodeId_);
    VoteBody vote{view_, seq, maybeCorrupt(slot.digest), rank_};
    Message m = makeMessage("pbft.commit", vote, pbftControlBytes);
    cluster_.rt().multicast(nodeId_, cluster_.replicaNodeIds(nodeId_),
                             std::move(m));
    slot.commits[rank_] = slot.digest;
    executeReady();
}

void
PbftReplica::executeReady()
{
    // Span for the execution sweep; client replies sent from the
    // loop below become its children.
    ScopedSpan span("pbft", "pbft.execute",
                    cluster_.rt().now(), nodeId_);
    // Execute committed slots strictly in sequence order.
    for (;;) {
        auto it = slots_.find(lastExecuted_ + 1);
        if (it == slots_.end())
            return;
        Slot &slot = it->second;
        if (slot.executed) {
            lastExecuted_++;
            continue;
        }
        if (!slot.request || votesFor(slot.commits, slot.digest) <
                                 2 * cluster_.faultTolerance() + 1)
            return;

        slot.executed = true;
        lastExecuted_++;
        executedCount_++;
        bump(&PbftMetricIds::commits);

        auto &[req_id, req] = *slot.request;
        if (req.executedSeq == 0) {
            if (cluster_.executor) {
                // The executor takes Bytes: the one payload copy a
                // replica makes.
                req.result = cluster_.executor(
                    rank_, Bytes(req.payload.begin(), req.payload.end()),
                    lastExecuted_);
            }
            req.executedSeq = lastExecuted_;
            // Durable write-through of the committed update: what
            // restoreFromLog() replays after a crash.
            if (LogStore *store = runningStore(storage_))
                store->put(updateLogKey(lastExecuted_), req.payload);
            if (rank_ == 0 && cluster_.onCommit)
                cluster_.onCommit(req.payload, lastExecuted_);
        }
        // else: a duplicate re-proposed after a view change; it keeps
        // its original result and is not executed again.

        if (req.client != invalidNode) {
            // A byzantine replica lies to the client; the client's
            // signature check and m+1 matching-vote quorum must filter
            // this out.
            const Bytes reply_result = fault_ == ReplicaFault::Byzantine
                                           ? toBytes("forged-result")
                                           : req.result;
            ReplyBody rb{lastExecuted_, req_id, reply_result, rank_,
                         KeyRegistry::sign(
                             cluster_.keyOf(rank_),
                             signedReply(lastExecuted_, reply_result))};
            Message rm = makeMessage(
                "pbft.reply", rb,
                req.result.size() + signatureWireSize +
                    pbftReplyExtraBytes);
            cluster_.rt().send(nodeId_, req.client, rm);
        }
    }
}

std::uint64_t
PbftReplica::restoreFromLog()
{
    LogStore *store = runningStore(storage_);
    if (!store)
        return 0;
    std::uint64_t replayed = 0;
    std::uint64_t max_seq = 0;
    store->scan("ulog/", [&](const std::string &key, const Bytes &payload) {
        std::optional<std::uint64_t> seq = parseUpdateLogKey(key);
        if (!seq)
            return; // not a record this replica wrote
        if (cluster_.executor)
            cluster_.executor(rank_, payload, *seq);
        max_seq = std::max(max_seq, *seq);
        replayed++;
    });
    lastExecuted_ = std::max(lastExecuted_, max_seq);
    nextSeq_ = std::max(nextSeq_, lastExecuted_ + 1);
    logInfo("pbft: replica ", rank_, " replayed ", replayed,
            " committed updates from its durable log");
    return replayed;
}

void
PbftReplica::onViewChange(const Message &msg)
{
    const auto &body = messageBody<ViewChangeBody>(msg);
    if (body.newView <= view_) {
        // Stale vote: the sender is behind (its earlier votes for our
        // current view were lost).  Announce the view we are in so it
        // catches up — without this, a laggard keeps voting for a
        // view everyone else already passed and the group can strand
        // itself short of a view-change quorum under message loss.
        if (body.rank != rank_) {
            NewViewBody nv{view_};
            Message m = makeMessage("pbft.newview", nv,
                                    pbftControlBytes);
            cluster_.rt().send(
                nodeId_, cluster_.replica(body.rank).nodeId(), m);
        }
        return;
    }
    auto &votes = viewVotes_[body.newView];
    votes.insert(body.rank);
    // Join rule (PBFT liveness): m+1 votes for a higher view prove at
    // least one correct replica timed out, so join that view-change
    // even though our own timer has not fired — otherwise replicas
    // that advanced at different times can each sit one vote short.
    if (!votes.count(rank_) &&
        votes.size() >= cluster_.faultTolerance() + 1) {
        votes.insert(rank_);
        bump(&PbftMetricIds::viewChangeVotes);
        ViewChangeBody vc{body.newView, rank_};
        Message m = makeMessage("pbft.viewchange", vc,
                                pbftControlBytes);
        cluster_.rt().multicast(
            nodeId_, cluster_.replicaNodeIds(nodeId_), std::move(m));
    }
    if (votes.size() < 2 * cluster_.faultTolerance() + 1)
        return;

    // Adopt the new view.  Simplified relative to full PBFT: slots
    // that were in flight are abandoned and their requests
    // re-proposed with fresh sequence numbers by the new leader;
    // request-id dedupe prevents double execution.
    bump(&PbftMetricIds::viewChanges);
    enterView(body.newView);

    if (isLeader()) {
        NewViewBody nv{view_};
        Message m = makeMessage("pbft.newview", nv, pbftControlBytes);
        cluster_.rt().multicast(
            nodeId_, cluster_.replicaNodeIds(nodeId_), std::move(m));
        // Re-propose everything we know about that never finished.
        for (auto &entry : requests_) {
            if (entry.second.executedSeq == 0)
                assignAndPrePrepare(entry);
        }
    }
}

void
PbftReplica::onNewView(const Message &msg)
{
    const auto &body = messageBody<NewViewBody>(msg);
    if (body.newView > view_)
        enterView(body.newView);
}

void
PbftReplica::enterView(unsigned v)
{
    view_ = v;
    viewVotes_.erase(viewVotes_.begin(), viewVotes_.upper_bound(view_));
    for (auto it = slots_.begin(); it != slots_.end();) {
        if (!it->second.executed && it->first > lastExecuted_) {
            it = slots_.erase(it);
        } else {
            ++it;
        }
    }
    nextSeq_ = lastExecuted_ + 1;
    for (auto &[req_id, req] : requests_) {
        // Forget leader-side assignments of requests that never
        // executed: their sequence numbers died with the old view, and
        // a retried request must be assignable afresh by the new leader.
        if (req.executedSeq == 0)
            req.assignedSeq = 0;
        // Entering a view restarts the failure clock: timers armed for
        // the old view would fire as no-ops yet block re-arming,
        // leaving no path to the next view change once they are spent.
        if (req.timer != invalidEventId) {
            cluster_.rt().cancel(req.timer);
            req.timer = invalidEventId;
        }
    }
}

// ---------------------------------------------------------------------
// PbftCluster
// ---------------------------------------------------------------------

PbftCluster::PbftCluster(
    Runtime &rt,
    const std::vector<std::pair<double, double>> &positions,
    KeyRegistry &registry, PbftConfig cfg)
    : rt_(rt), cfg_(cfg), registry_(registry)
{
    unsigned n = 3 * cfg.m + 1;
    if (positions.size() != n)
        fatal("PbftCluster: need exactly 3m+1 replica positions");

    replicas_.reserve(n);
    keys_.reserve(n);
    for (unsigned r = 0; r < n; r++) {
        auto rep = std::make_unique<PbftReplica>(*this, r);
        rep->nodeId_ =
            rt_.addNode(rep.get(), positions[r].first,
                         positions[r].second);
        replicas_.push_back(std::move(rep));
        keys_.push_back(registry_.generate());
    }
}

std::unique_ptr<PbftClient>
PbftCluster::makeClient(double x, double y, std::uint64_t client_id)
{
    auto client = std::make_unique<PbftClient>(*this, client_id);
    client->nodeId_ = rt_.addNode(client.get(), x, y);
    return client;
}

std::vector<Bytes>
PbftCluster::publicKeys() const
{
    std::vector<Bytes> keys;
    keys.reserve(keys_.size());
    for (const auto &kp : keys_)
        keys.push_back(kp.publicKey);
    return keys;
}

std::vector<NodeId>
PbftCluster::replicaNodeIds(NodeId except) const
{
    std::vector<NodeId> ids;
    ids.reserve(replicas_.size());
    for (const auto &rep : replicas_) {
        if (rep->nodeId() != except)
            ids.push_back(rep->nodeId());
    }
    return ids;
}

} // namespace oceanstore
