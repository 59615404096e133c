#include "consistency/byzantine.h"

#include <algorithm>
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

PbftMetricIds &
pbftMetrics()
{
    static PbftMetricIds ids;
    return ids;
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

/** Durable update-log key: zero-padded so a lexicographic "ulog/"
 *  scan replays strictly in sequence order. */
std::string
updateLogKey(std::uint64_t seq)
{
    std::string digits = std::to_string(seq);
    return "ulog/" + std::string(20 - digits.size(), '0') + digits;
}

} // namespace

// ---------------------------------------------------------------------
// CommitCertificate
// ---------------------------------------------------------------------

Bytes
CommitCertificate::signedPayload() const
{
    // Must match what PbftReplica::executeReady signs.
    ByteWriter w;
    w.putU64(sequence);
    w.putBlob(result);
    return w.take();
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
    {
        PbftMetricIds &pm = pbftMetrics();
        pm.reg->inc(pm.submits);
    }
    // Request ids must be unique even for identical payloads, so the
    // hash covers the client id and a per-client counter.
    ByteWriter w;
    w.putU64(clientId_);
    w.putU64(pending_.size() + 1);
    w.putU64(cluster_.rt().uniqueStamp());
    w.putBlob(payload);
    Guid req_id = Guid::hashOf(w.buffer());

    PendingRequest pr;
    pr.payload = Blob(payload);
    pr.submitTime = cluster_.rt().now();
    pr.done = std::move(done);
    ReqBody body{pr.payload, req_id, nodeId_, false};
    pending_[req_id] = std::move(pr);

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
    // backoff re-broadcasts until maybeComplete calls succeed().
    PendingRequest &slot = pending_[req_id];
    slot.retry = std::make_unique<RpcCall>(
        cluster_.rt(), cluster_.config().clientRetry,
        req_id.hash64() ^ clientId_);
    slot.retry->arm([this, req_id](unsigned) {
        auto it = pending_.find(req_id);
        if (it == pending_.end() || it->second.completed)
            return;
        it->second.retried = true;
        retryAttempts_++;
        {
            PbftMetricIds &pm = pbftMetrics();
            pm.reg->inc(pm.clientRetries);
        }
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
        if (it == pending_.end() || it->second.completed)
            return;
        it->second.completed = true;
        {
            PbftMetricIds &pm = pbftMetrics();
            pm.reg->inc(pm.clientGiveups);
        }
        PbftOutcome out;
        out.requestId = req_id;
        out.completed = false;
        out.latency =
            cluster_.rt().now() - it->second.submitTime;
        // The callback may re-enter submit() and rehash pending_;
        // take what we need off the entry first.
        auto done = std::move(it->second.done);
        if (done)
            done(out);
    });
}

void
PbftClient::maybeComplete(const Guid &request_id, PendingRequest &pr,
                          std::uint64_t seq, const Bytes &result)
{
    if (pr.completed)
        return;
    // Count matching (seq, result) votes from distinct ranks; they
    // double as the signature shares of the commit certificate.
    Guid rhash = Guid::hashOf(result);
    unsigned matches = 0;
    for (const auto &[rank, vote] : pr.votes) {
        if (vote.seq == seq && vote.resultHash == rhash)
            matches++;
    }
    if (matches < cluster_.faultTolerance() + 1)
        return;

    pr.completed = true;
    if (pr.retry)
        pr.retry->succeed();
    PbftOutcome out;
    out.requestId = request_id;
    out.sequence = seq;
    out.result = result;
    out.latency = cluster_.rt().now() - pr.submitTime;
    out.certificate.sequence = seq;
    out.certificate.result = result;
    for (const auto &[rank, vote] : pr.votes) {
        if (vote.seq == seq && vote.resultHash == rhash)
            out.certificate.signatures.emplace_back(rank,
                                                    vote.signature);
    }
    if (pr.done)
        pr.done(out);
}

void
PbftClient::handleMessage(const Message &msg)
{
    if (msg.type != "pbft.reply")
        return;
    const auto &body = messageBody<ReplyBody>(msg);
    auto it = pending_.find(body.requestId);
    if (it == pending_.end() || it->second.completed)
        return;

    // Verify the replica's signature over (seq, result).
    ByteWriter w;
    w.putU64(body.seq);
    w.putBlob(body.result);
    if (!cluster_.registry().verify(
            cluster_.keyOf(body.rank).publicKey, w.buffer(), body.sig)) {
        return; // forged or corrupted reply
    }

    Vote vote;
    vote.seq = body.seq;
    vote.resultHash = Guid::hashOf(body.result);
    vote.result = body.result;
    vote.signature = body.sig;
    it->second.votes[body.rank] = std::move(vote);
    maybeComplete(body.requestId, it->second, body.seq, body.result);
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
        onPrepare(msg);
    else if (msg.type == "pbft.commit")
        onCommit(msg);
    else if (msg.type == "pbft.viewchange")
        onViewChange(msg);
    else if (msg.type == "pbft.newview")
        onNewView(msg);
}

void
PbftReplica::assignAndPrePrepare(const Blob &payload, const Guid &req_id,
                                 NodeId client)
{
    // Span for the leader's ordering step; the pre-prepare multicast
    // becomes its child.
    ScopedSpan span("pbft", "pbft.assign", cluster_.rt().now(),
                    nodeId_);
    std::uint64_t seq = nextSeq_++;
    assigned_[req_id] = seq;

    Slot &slot = slots_[seq];
    slot.digest = Guid::hashOf(payload);
    slot.payload = payload;
    slot.requestId = req_id;
    slot.client = client;
    slot.hasPrePrepare = true;

    PrePrepareBody body{view_, seq, slot.digest, payload, req_id, client};
    Message m = makeMessage("pbft.preprepare", body,
                            payload.size() + pbftControlBytes);
    cluster_.rt().multicast(nodeId_, cluster_.replicaNodeIds(nodeId_),
                             std::move(m));
    // The leader's own prepare is implicit in the pre-prepare.
    slot.prepares.insert(rank_);
    tryCommit(seq);
}

void
PbftReplica::onRequest(const Message &msg)
{
    const auto &body = messageBody<ReqBody>(msg);

    // Already executed: re-reply directly.
    auto dit = done_.find(body.requestId);
    if (dit != done_.end()) {
        ByteWriter w;
        w.putU64(dit->second.first);
        w.putBlob(dit->second.second);
        ReplyBody rb{dit->second.first, body.requestId,
                     dit->second.second, rank_,
                     KeyRegistry::sign(cluster_.keyOf(rank_),
                                       w.buffer())};
        Message rm = makeMessage("pbft.reply", rb,
                                 rb.result.size() + signatureWireSize +
                                     pbftReplyExtraBytes);
        cluster_.rt().send(nodeId_, body.client, rm);
        if (!body.retry || !isLeader())
            return;
    } else {
        known_[body.requestId] = {body.payload, body.client};
    }

    if (isLeader()) {
        auto ait = assigned_.find(body.requestId);
        if (ait == assigned_.end()) {
            if (dit == done_.end())
                assignAndPrePrepare(body.payload, body.requestId,
                                    body.client);
        } else if (body.retry) {
            // Assigned but stalled: retransmit the pre-prepare.
            // Without within-view retransmission a single dropped
            // control message stalls the slot until a view change,
            // and view changes restart everyone's work.
            // The leader may have executed the slot while backups
            // that lost commit votes have not: a retry means the client
            // still lacks m+1 replies.
            auto sit = slots_.find(ait->second);
            if (sit != slots_.end()) {
                Slot &slot = sit->second;
                PrePrepareBody pp{view_, ait->second, slot.digest,
                                  slot.payload, body.requestId,
                                  slot.client};
                Message m = makeMessage("pbft.preprepare", pp,
                                        slot.payload.size() +
                                            pbftControlBytes);
                {
                    PbftMetricIds &pm = pbftMetrics();
                    pm.reg->inc(pm.preprepareRetransmits);
                }
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
        startViewChangeTimer(body.requestId);
    }
}

void
PbftReplica::startViewChangeTimer(const Guid &req_id)
{
    if (timers_.count(req_id))
        return;
    unsigned armed_view = view_;
    // Timeouts grow with the view number (Castro-Liskov): under heavy
    // message loss successive view changes otherwise fire faster than
    // any view can finish its work, and the group thrashes forever.
    double delay = viewChangeTimeout *
                   static_cast<double>(1u << std::min(view_, 4u));
    timers_[req_id] = cluster_.rt().schedule(
        delay, [this, req_id, armed_view]() {
            timers_.erase(req_id);
            if (fault_ == ReplicaFault::Crash)
                return;
            if (done_.count(req_id) || view_ != armed_view)
                return;
            // The leader failed us: vote to move to the next view.
            {
                PbftMetricIds &pm = pbftMetrics();
                pm.reg->inc(pm.viewChangeVotes);
            }
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
    if (slot.hasPrePrepare && slot.digest != body.digest)
        return; // conflicting pre-prepare; ignore
    const bool had_preprepare = slot.hasPrePrepare;
    slot.digest = body.digest;
    slot.payload = body.payload;
    slot.requestId = body.requestId;
    slot.client = body.client;
    slot.hasPrePrepare = true;
    known_[body.requestId] = {body.payload, body.client};
    if (body.seq >= nextSeq_)
        nextSeq_ = body.seq + 1;

    // Cancel any view-change timer for this request, unless this is a
    // retransmission of a pre-prepare already held: a backup stuck
    // behind an earlier slot still needs the view change.
    auto tit = timers_.find(body.requestId);
    if (tit != timers_.end() && !had_preprepare) {
        cluster_.rt().cancel(tit->second);
        timers_.erase(tit);
    }

    // Replay buffered votes now that the digest is known.
    for (const auto &[rank, digest] : slot.earlyPrepares) {
        if (digest == slot.digest)
            slot.prepares.insert(rank);
    }
    slot.earlyPrepares.clear();
    for (const auto &[rank, digest] : slot.earlyCommits) {
        if (digest == slot.digest)
            slot.commits.insert(rank);
    }
    slot.earlyCommits.clear();

    bool had_committed = slot.sentCommit;
    VoteBody vote{view_, body.seq, maybeCorrupt(body.digest), rank_};
    Message m = makeMessage("pbft.prepare", vote, pbftControlBytes);
    cluster_.rt().multicast(nodeId_, cluster_.replicaNodeIds(nodeId_),
                             std::move(m));
    slot.prepares.insert(rank_);
    // The leader's prepare is implicit in its pre-prepare (PBFT):
    // count it so quorums survive m crashed backups.
    slot.prepares.insert(view_ % cluster_.size());
    tryCommit(body.seq);
    if (had_committed) {
        // Retransmitted pre-prepare and we had already committed:
        // our earlier commit may be what the stalled peers lost.
        VoteBody cv{view_, body.seq, maybeCorrupt(slot.digest), rank_};
        Message cm = makeMessage("pbft.commit", cv, pbftControlBytes);
        {
            PbftMetricIds &pm = pbftMetrics();
            pm.reg->inc(pm.commitRetransmits);
        }
        cluster_.rt().multicast(nodeId_,
                                 cluster_.replicaNodeIds(nodeId_),
                                 std::move(cm));
    }
}

void
PbftReplica::onPrepare(const Message &msg)
{
    const auto &body = messageBody<VoteBody>(msg);
    if (body.view != view_)
        return;
    Slot &slot = slots_[body.seq];
    if (!slot.hasPrePrepare) {
        // Buffer until the pre-prepare supplies the digest to check.
        slot.earlyPrepares[body.rank] = body.digest;
        return;
    }
    if (body.digest != slot.digest)
        return; // mismatched digest (byzantine voter)
    slot.prepares.insert(body.rank);
    tryCommit(body.seq);
}

void
PbftReplica::tryCommit(std::uint64_t seq)
{
    Slot &slot = slots_[seq];
    // prepared == pre-prepare + 2m matching prepares (including own).
    if (!slot.hasPrePrepare || slot.sentCommit)
        return;
    if (slot.prepares.size() < 2 * cluster_.faultTolerance() + 1)
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
    slot.commits.insert(rank_);
    executeReady();
}

void
PbftReplica::onCommit(const Message &msg)
{
    const auto &body = messageBody<VoteBody>(msg);
    if (body.view != view_)
        return;
    Slot &slot = slots_[body.seq];
    if (!slot.hasPrePrepare) {
        slot.earlyCommits[body.rank] = body.digest;
        return;
    }
    if (body.digest != slot.digest)
        return;
    slot.commits.insert(body.rank);
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
        bool committed_local =
            slot.hasPrePrepare &&
            slot.commits.size() >= 2 * cluster_.faultTolerance() + 1;
        if (!committed_local)
            return;

        slot.executed = true;
        lastExecuted_++;
        executedCount_++;
        {
            PbftMetricIds &pm = pbftMetrics();
            pm.reg->inc(pm.commits);
        }

        Bytes result;
        if (done_.count(slot.requestId)) {
            // Re-proposed duplicate after a view change; reuse the
            // original result, do not re-execute.
            result = done_[slot.requestId].second;
        } else {
            if (cluster_.executor) {
                // The executor takes Bytes: the one payload copy a
                // replica makes.
                result = cluster_.executor(
                    rank_, Bytes(slot.payload.begin(), slot.payload.end()),
                    lastExecuted_);
            }
            done_[slot.requestId] = {lastExecuted_, result};
            // Durable write-through of the committed update: what
            // restoreFromLog() replays after a crash.
            if (LogStore *store = runningStore(storage_))
                store->put(updateLogKey(lastExecuted_), slot.payload);
            if (rank_ == 0 && cluster_.onCommit)
                cluster_.onCommit(slot.payload, lastExecuted_);
        }

        if (slot.client != invalidNode) {
            Bytes reply_result = result;
            if (fault_ == ReplicaFault::Byzantine) {
                // A byzantine replica lies to the client; the client's
                // signature check and m+1 matching-vote quorum must
                // filter this out.
                reply_result = toBytes("forged-result");
            }
            ByteWriter w;
            w.putU64(lastExecuted_);
            w.putBlob(reply_result);
            ReplyBody rb{lastExecuted_, slot.requestId, reply_result,
                         rank_,
                         KeyRegistry::sign(cluster_.keyOf(rank_),
                                           w.buffer())};
            Message rm = makeMessage(
                "pbft.reply", rb,
                result.size() + signatureWireSize +
                    pbftReplyExtraBytes);
            cluster_.rt().send(nodeId_, slot.client, rm);
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
        std::uint64_t seq = std::stoull(key.substr(5));
        if (cluster_.executor)
            cluster_.executor(rank_, payload, seq);
        max_seq = std::max(max_seq, seq);
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
        {
            PbftMetricIds &pm = pbftMetrics();
            pm.reg->inc(pm.viewChangeVotes);
        }
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
    {
        PbftMetricIds &pm = pbftMetrics();
        pm.reg->inc(pm.viewChanges);
    }
    enterView(body.newView);

    if (isLeader()) {
        NewViewBody nv{view_};
        Message m = makeMessage("pbft.newview", nv, pbftControlBytes);
        cluster_.rt().multicast(
            nodeId_, cluster_.replicaNodeIds(nodeId_), std::move(m));
        // Re-propose everything we know about that never finished.
        for (const auto &[req_id, pc] : known_) {
            if (done_.count(req_id))
                continue;
            assignAndPrePrepare(pc.first, req_id, pc.second);
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
    // Forget leader-side dedupe entries for requests that never
    // executed: their sequence numbers died with the old view, and a
    // retried request must be assignable afresh by the new leader.
    // (Every assigned request is in known_, which is ordered.)
    for (const auto &[req_id, pc] : known_) {
        if (!done_.count(req_id))
            assigned_.erase(req_id);
    }
    // Entering a view restarts the failure clock: timers armed for
    // the old view would fire as no-ops yet block re-arming, leaving
    // no path to the next view change once they are spent.
    for (auto &[req_id, ev] : timers_)
        cluster_.rt().cancel(ev);
    timers_.clear();
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
