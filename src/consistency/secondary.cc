#include "consistency/secondary.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace oceanstore {

namespace {

/** Peers a fresh rumor (tentative update) is forwarded to. */
constexpr unsigned rumorFanout = 2;

/** Interned metric ids, registered once on first use. */
struct SecMetricIds
{
    MetricsRegistry *reg;
    MetricsRegistry::Id pushes, acks, pushRetransmits,
        antiEntropyRounds, invalidations, fetches, injects;

    SecMetricIds()
        : reg(&MetricsRegistry::global()),
          pushes(reg->counter("sec.pushes")),
          acks(reg->counter("sec.acks")),
          pushRetransmits(reg->counter("sec.push_retransmits")),
          antiEntropyRounds(reg->counter("sec.antientropy_rounds")),
          invalidations(reg->counter("sec.invalidations")),
          fetches(reg->counter("sec.fetches")),
          injects(reg->counter("sec.committed_injects"))
    {
    }
};

SecMetricIds &
secMetrics()
{
    static SecMetricIds ids;
    return ids;
}

struct TentativeBody
{
    SharedUpdate update;
};

struct DigestBody
{
    std::vector<Guid> tentativeIds;
    std::map<Guid, VersionNum> committed;
    NodeId from = invalidNode;
    bool wantReply = false;
};

struct PullBody
{
    std::vector<Guid> wantTentative;
    std::map<Guid, VersionNum> fromVersions;
};

struct CommittedRecord
{
    Guid object;
    VersionNum version = 0;
    SharedUpdate update;
};

struct UpdatesBody
{
    std::vector<SharedUpdate> tentative;
    std::vector<CommittedRecord> committed;
    /** A reply to sec.fetch: the receiver forwards what it learns
     *  down its tree, as if the pushes had reached it. */
    bool catchUp = false;
};

struct PushBody
{
    SharedUpdate update;
    VersionNum version = 0;
    /** The object's tier slot, looked up once at the root; local
     *  bookkeeping, not on the wire. */
    std::uint32_t slot = 0;
};

struct AckBody
{
    Guid updateId;
    VersionNum version = 0;
};

struct InvalBody
{
    Guid object;
    VersionNum version = 0;
    Guid updateId;
};

struct FetchBody
{
    Guid object;
    VersionNum fromVersion = 0;
};

std::size_t
digestWireSize(const DigestBody &d)
{
    return d.tentativeIds.size() * Guid::numBytes +
           d.committed.size() * (Guid::numBytes + 8) + 8;
}

std::size_t
updatesWireSize(const UpdatesBody &u)
{
    std::size_t n = 0;
    for (const auto &t : u.tentative)
        n += t->wireSize();
    for (const auto &c : u.committed)
        n += c.update->wireSize() + Guid::numBytes + 8;
    return n;
}

/** Id of the committed update that made @p v in @p obj's log, or the
 *  null Guid when the log has none. */
Guid
committedIdAt(const DataObject &obj, VersionNum v)
{
    const auto &log = obj.log();
    auto it = std::lower_bound(
        log.begin(), log.end(), v,
        [](const LogEntry &e, VersionNum want) {
            return e.versionAfter < want;
        });
    return it != log.end() && it->committed && it->versionAfter == v
               ? it->update->id()
               : Guid();
}

/** Append to @p out every committed update in @p obj's log above
 *  version @p above, in log order. */
void
appendCommittedAbove(const DataObject &obj, VersionNum above,
                     std::vector<CommittedRecord> &out)
{
    for (const auto &e : obj.log()) {
        if (e.committed && e.versionAfter > above)
            out.push_back({obj.guid(), e.versionAfter, e.update});
    }
}

} // namespace

// ---------------------------------------------------------------------
// SecondaryReplica
// ---------------------------------------------------------------------

SecondaryReplica::SecondaryReplica(SecondaryTier &tier, std::size_t index)
    : tier_(tier), index_(index),
      rng_(tier.config().seed ^ (0x9e3779b9ull * (index + 1)))
{
}

const SecondaryReplica::Held *
SecondaryReplica::entry(const Guid &obj) const
{
    const std::uint32_t slot = tier_.findSlot(obj);
    return slot == SecondaryTier::noSlot ? nullptr
                                         : tier_.heldAt(slot, index_);
}

const SecondaryReplica::Held *
SecondaryReplica::find(const Guid &obj) const
{
    const Held *h = entry(obj);
    return h && h->state ? h : nullptr;
}

SecondaryReplica::Held *
SecondaryReplica::hold(std::uint32_t slot)
{
    Held *h = tier_.heldAt(slot, index_);
    if (h && !h->state)
        h->state = tier_.sets_[slot].empty;
    return h;
}

template <typename F>
void
SecondaryReplica::forEachHeld(F &&visit) const
{
    for (std::uint32_t slot : tier_.slotsByGuid_) {
        const Held *h = tier_.heldAt(slot, index_);
        if (h && h->state)
            visit(*h->state);
    }
}

bool
SecondaryReplica::markForwarded(Held &h, VersionNum version)
{
    auto &above = h.forwardedAbove;
    if (version <= h.forwardedThrough)
        return false;
    auto it = std::lower_bound(above.begin(), above.end(), version);
    if (it != above.end() && *it == version)
        return false;
    if (version != h.forwardedThrough + 1) {
        above.insert(it, version);
        return true;
    }
    h.forwardedThrough = version;
    std::size_t n = 0;
    while (n < above.size() && above[n] == h.forwardedThrough + 1) {
        h.forwardedThrough++;
        n++;
    }
    above.erase(above.begin(),
                above.begin() + static_cast<std::ptrdiff_t>(n));
    return true;
}

VersionNum
SecondaryReplica::committedVersion(const Guid &obj) const
{
    const Held *h = find(obj);
    return h ? h->state->version() : 0;
}

const DataObject &
SecondaryReplica::committedObject(const Guid &obj)
{
    const std::uint32_t slot = tier_.slotFor(obj);
    const Held *h = hold(slot);
    return h ? *h->state : *tier_.sets_[slot].empty;
}

SharedState
SecondaryReplica::committedState(const Guid &obj) const
{
    const Held *h = find(obj);
    return h ? h->state : nullptr;
}

bool
SecondaryReplica::isStale(const Guid &obj) const
{
    const Held *h = entry(obj);
    return h && h->staleUntil != 0;
}

std::size_t
SecondaryReplica::bufferedCount(const Guid &obj) const
{
    const Held *h = entry(obj);
    return h ? h->buffered.size() : 0;
}

DataObject
SecondaryReplica::tentativeObject(const Guid &obj)
{
    DataObject copy = committedObject(obj);
    // Gather tentative updates for this object, optimistically
    // ordered by client timestamp (Section 4.4.3).
    std::vector<SharedUpdate> tentative;
    for (const auto &[id, u] : tentative_) {
        if (u->objectGuid == obj)
            tentative.push_back(u);
    }
    std::sort(tentative.begin(), tentative.end(),
              [](const SharedUpdate &a, const SharedUpdate &b) {
                  if (a->timestamp != b->timestamp)
                      return a->timestamp < b->timestamp;
                  return a->id() < b->id();
              });
    for (SharedUpdate &u : tentative)
        copy.apply(std::move(u));
    return copy;
}

void
SecondaryReplica::handleMessage(const Message &msg)
{
    if (msg.type == "sec.tentative")
        onTentative(msg);
    else if (msg.type == "sec.digest")
        onDigest(msg);
    else if (msg.type == "sec.pull")
        onPull(msg);
    else if (msg.type == "sec.updates")
        onUpdates(msg);
    else if (msg.type == "sec.push")
        onPush(msg);
    else if (msg.type == "sec.ack")
        onAck(msg);
    else if (msg.type == "sec.inval")
        onInvalidate(msg);
    else if (msg.type == "sec.fetch")
        onFetch(msg);
}

void
SecondaryReplica::storeTentative(SharedUpdate u, bool gossip)
{
    Guid id = u->id();
    if (tentative_.count(id))
        return; // already infected; stop the rumor here
    // Drop tentative updates already subsumed by a committed version.
    if (const Held *h = find(u->objectGuid)) {
        for (const auto &e : h->state->log()) {
            if (e.committed && e.update->id() == id)
                return;
        }
    }
    tentative_[id] = u;

    if (!gossip)
        return;
    // Rumor mongering: forward a fresh rumor to a few random peers.
    // The fan-out sends become children of this span.
    ScopedSpan span("sec", "sec.rumor", tier_.rt().now(),
                    nodeId_);
    TentativeBody body{u};
    for (unsigned i = 0; i < rumorFanout; i++) {
        std::size_t peer = rng_.below(tier_.size());
        if (peer == index_)
            continue;
        tier_.rt().send(nodeId_, tier_.replica(peer).nodeId(),
                         makeMessage("sec.tentative", body,
                                     u->wireSize()));
    }
}

void
SecondaryReplica::onTentative(const Message &msg)
{
    storeTentative(messageBody<TentativeBody>(msg).update, true);
}

bool
SecondaryReplica::applyCommitted(Held &h, SharedUpdate u,
                                 VersionNum version)
{
    const Guid obj_guid = u->objectGuid;
    OS_DCHECK(h.state->guid() == obj_guid,
              "applyCommitted: entry holds another object");

    if (version <= h.state->version())
        return false; // duplicate

    if (version > h.state->version() + 1) {
        auto &run = h.buffered;
        auto it = std::lower_bound(
            run.begin(), run.end(), version,
            [](const auto &e, VersionNum v) { return e.first < v; });
        if (it != run.end() && it->first == version)
            it->second = std::move(u);
        else
            run.emplace(it, version, std::move(u));
        return true;
    }

    Guid uid = u->id();
    h.state = DataObject::successor(h.state, std::move(u));
    tentative_.erase(uid);
    drainBuffered(h);
    if (h.state->version() >= h.staleUntil)
        h.staleUntil = 0;
    return false;
}

void
SecondaryReplica::drainBuffered(Held &h)
{
    auto &run = h.buffered;
    std::size_t n = 0;
    while (n < run.size() && run[n].first == h.state->version() + 1) {
        SharedUpdate u = std::move(run[n++].second);
        Guid uid = u->id();
        h.state = DataObject::successor(h.state, std::move(u));
        tentative_.erase(uid);
    }
    run.erase(run.begin(), run.begin() + static_cast<std::ptrdiff_t>(n));
}

void
SecondaryReplica::onPush(const Message &msg)
{
    const auto &body = messageBody<PushBody>(msg);
    Guid uid = body.update->id();
    SecMetricIds &sm = secMetrics();
    sm.reg->inc(sm.pushes);

    // Tree pushes are acked and unacked ones retransmitted, so a single
    // dropped sec.push cannot silence a whole subtree until
    // anti-entropy happens by.  Ack every push that crossed the
    // network (the root injects locally with src == invalidNode),
    // including duplicates and retransmissions: the parent may have
    // missed the first ack.
    if (msg.src != invalidNode) {
        AckBody ack{uid, body.version};
        sm.reg->inc(sm.acks);
        tier_.rt().send(nodeId_, msg.src,
                         makeMessage("sec.ack", ack,
                                     Guid::numBytes + 8));
    }

    // A push that reaches a replica outside the object's set (a
    // retransmit racing a Retire) is acked above and dropped here.
    Held *held = hold(body.slot);
    if (!held)
        return;
    Held &h = *held;
    // A version that lands behind a gap (a push lost past its
    // retries, or sent before a Create or a tree rebuild) asks the
    // parent for what is missing.
    if (applyCommitted(h, body.update, body.version))
        fetchFromParent(body.update->objectGuid);

    // Forward each update down the tree at most once; retransmitted
    // or duplicated pushes stop here, so lossy links cannot trigger
    // multicast storms.  A version names one committed update.
    OS_DCHECK(h.state->version() < body.version ||
                  committedIdAt(*h.state, body.version) == uid,
              "sec.push: version ", body.version,
              " was committed with another update");
    if (markForwarded(h, body.version))
        forward(msg, body.slot, body.update, body.version);
}

void
SecondaryReplica::forward(const Message &cause, std::uint32_t slot,
                          const SharedUpdate &u, VersionNum version)
{
    // Forward down the dissemination tree; bandwidth-limited leaves
    // get an invalidation instead of the body.  Both fan-outs go
    // through the batched multicast path so the update body is stored
    // once, not deep-copied per child.
    const PushBody body{u, version, slot};
    const Guid uid = u->id();
    const DisseminationTree &tree = *tier_.sets_[slot].tree;
    std::vector<NodeId> push_children;
    std::vector<NodeId> inval_children;
    for (NodeId child : tree.childrenOf(nodeId_)) {
        if (child == cause.src)
            continue;
        if (tier_.config().invalidateAtLeaves && tree.isLeaf(child))
            inval_children.push_back(child);
        else
            push_children.push_back(child);
    }
    if (!inval_children.empty()) {
        InvalBody inv{body.update->objectGuid, body.version, uid};
        tier_.rt().multicast(nodeId_, inval_children,
                              makeMessage("sec.inval", inv,
                                          2 * Guid::numBytes + 8));
    }
    if (!push_children.empty()) {
        tier_.rt().multicast(nodeId_, push_children,
                              makeMessage("sec.push", body,
                                          body.update->wireSize() + 8));
        // The multicast is attempt 1; per-child drivers retransmit
        // individually until the child acks or attempts run out
        // (anti-entropy is the backstop beyond that).  Each driver
        // holds the body by value: a reference to the shared update.
        for (NodeId child : push_children) {
            auto key = std::make_pair(child, uid);
            auto call = std::make_unique<RpcCall>(
                tier_.rt(), tier_.config().pushRetry,
                tier_.config().seed ^ child ^ uid.hash64());
            call->arm(
                [this, child, body](unsigned) {
                    pushRetransmits_++;
                    {
                        SecMetricIds &m = secMetrics();
                        m.reg->inc(m.pushRetransmits);
                    }
                    tier_.rt().send(
                        nodeId_, child,
                        makeMessage("sec.push", body,
                                    body.update->wireSize() + 8));
                },
                [this, key]() { pushPending_.erase(key); });
            pushPending_[key] = std::move(call);
        }
    }
}

void
SecondaryReplica::onAck(const Message &msg)
{
    const auto &body = messageBody<AckBody>(msg);
    auto it = pushPending_.find({msg.src, body.updateId});
    if (it == pushPending_.end())
        return;
    it->second->succeed();
    pushPending_.erase(it);
}

void
SecondaryReplica::onInvalidate(const Message &msg)
{
    const auto &body = messageBody<InvalBody>(msg);
    {
        SecMetricIds &sm = secMetrics();
        sm.reg->inc(sm.invalidations);
    }
    Held *h = tier_.heldAt(tier_.slotFor(body.object), index_);
    if (!h || (h->state && h->state->version() >= body.version))
        return;
    h->staleUntil = std::max(h->staleUntil, body.version);
    // The invalidated tentative entry no longer reflects reality.
    tentative_.erase(body.updateId);
}

void
SecondaryReplica::fetchFromParent(const Guid &obj)
{
    NodeId parent = tier_.sets_[tier_.slotFor(obj)].tree->parentOf(nodeId_);
    if (parent == invalidNode)
        return;
    // Entry-point span: the fetch request up the tree becomes its
    // child.
    ScopedSpan span("sec", "sec.fetch_parent",
                    tier_.rt().now(), nodeId_);
    {
        SecMetricIds &sm = secMetrics();
        sm.reg->inc(sm.fetches);
    }
    FetchBody body{obj, committedVersion(obj)};
    tier_.rt().send(nodeId_, parent,
                     makeMessage("sec.fetch", body,
                                 Guid::numBytes + 8));
}

void
SecondaryReplica::onFetch(const Message &msg)
{
    const auto &body = messageBody<FetchBody>(msg);
    const Held *h = find(body.object);
    if (!h)
        return;
    UpdatesBody reply;
    reply.catchUp = true;
    appendCommittedAbove(*h->state, body.fromVersion, reply.committed);
    if (reply.committed.empty())
        return;
    tier_.rt().send(nodeId_, msg.src,
                     makeMessage("sec.updates", reply,
                                 updatesWireSize(reply)));
}

void
SecondaryReplica::scheduleAntiEntropy()
{
    double period = tier_.config().antiEntropyPeriod *
                    rng_.uniform(0.8, 1.2);
    antiEntropyTimer_ = tier_.rt().schedule(period, [this]() {
        if (!tier_.antiEntropyOn_)
            return;
        runAntiEntropy();
        scheduleAntiEntropy();
    });
}

void
SecondaryReplica::runAntiEntropy()
{
    if (tier_.size() < 2)
        return;
    // Root span of an anti-entropy round: the digest exchange and any
    // repair traffic it triggers become (transitive) children.
    ScopedSpan span("sec", "sec.antientropy",
                    tier_.rt().now(), nodeId_);
    {
        SecMetricIds &sm = secMetrics();
        sm.reg->inc(sm.antiEntropyRounds);
    }
    std::size_t peer;
    do {
        peer = rng_.below(tier_.size());
    } while (peer == index_);

    DigestBody d;
    d.from = nodeId_;
    d.wantReply = true;
    for (const auto &[id, u] : tentative_)
        d.tentativeIds.push_back(id);
    forEachHeld([&](const DataObject &obj) {
        d.committed.emplace_hint(d.committed.end(), obj.guid(),
                                 obj.version());
    });

    tier_.rt().send(nodeId_, tier_.replica(peer).nodeId(),
                     makeMessage("sec.digest", d, digestWireSize(d)));
}

void
SecondaryReplica::onDigest(const Message &msg)
{
    const auto &d = messageBody<DigestBody>(msg);

    // 1. Pull what the sender has and we lack.
    PullBody pull;
    for (const Guid &id : d.tentativeIds) {
        if (!tentative_.count(id))
            pull.wantTentative.push_back(id);
    }
    for (const auto &[g, v] : d.committed) {
        if (committedVersion(g) < v && tier_.isMember(g, index_))
            pull.fromVersions[g] = committedVersion(g);
    }
    if (!pull.wantTentative.empty() || !pull.fromVersions.empty()) {
        tier_.rt().send(
            nodeId_, d.from,
            makeMessage("sec.pull", pull,
                        pull.wantTentative.size() * Guid::numBytes +
                            pull.fromVersions.size() *
                                (Guid::numBytes + 8)));
    }

    // 2. Push what we have and the sender lacks (their digest told
    //    us), completing the bidirectional exchange.
    if (d.wantReply) {
        UpdatesBody out;
        std::unordered_set<Guid> their_ids(d.tentativeIds.begin(),
                                           d.tentativeIds.end());
        for (const auto &[id, u] : tentative_) {
            if (!their_ids.count(id))
                out.tentative.push_back(u);
        }
        auto sender = tier_.byNode_.find(d.from);
        forEachHeld([&](const DataObject &obj) {
            if (sender == tier_.byNode_.end() ||
                !tier_.isMember(obj.guid(), sender->second))
                return;
            auto it = d.committed.find(obj.guid());
            VersionNum theirs = it == d.committed.end() ? 0 : it->second;
            appendCommittedAbove(obj, theirs, out.committed);
        });
        if (!out.tentative.empty() || !out.committed.empty()) {
            tier_.rt().send(nodeId_, d.from,
                             makeMessage("sec.updates", out,
                                         updatesWireSize(out)));
        }
    }
}

void
SecondaryReplica::onPull(const Message &msg)
{
    const auto &pull = messageBody<PullBody>(msg);
    UpdatesBody out;
    for (const Guid &id : pull.wantTentative) {
        auto it = tentative_.find(id);
        if (it != tentative_.end())
            out.tentative.push_back(it->second);
    }
    for (const auto &[g, from] : pull.fromVersions) {
        if (const Held *h = find(g))
            appendCommittedAbove(*h->state, from, out.committed);
    }
    if (!out.tentative.empty() || !out.committed.empty()) {
        tier_.rt().send(nodeId_, msg.src,
                         makeMessage("sec.updates", out,
                                     updatesWireSize(out)));
    }
}

void
SecondaryReplica::onUpdates(const Message &msg)
{
    const auto &body = messageBody<UpdatesBody>(msg);
    for (const SharedUpdate &u : body.tentative)
        storeTentative(u, false);
    // Apply committed records in version order per object.
    auto sorted = body.committed;
    std::sort(sorted.begin(), sorted.end(),
              [](const CommittedRecord &a, const CommittedRecord &b) {
                  if (a.object != b.object)
                      return a.object < b.object;
                  return a.version < b.version;
              });
    for (const auto &rec : sorted) {
        // Records for an object outside this replica's set are
        // dropped, not applied.  A catch-up record continues down the
        // tree, so a subtree behind a lagging member catches up with it.
        const std::uint32_t slot = tier_.slotFor(rec.update->objectGuid);
        Held *h = hold(slot);
        if (!h)
            continue;
        applyCommitted(*h, rec.update, rec.version);
        if (body.catchUp && markForwarded(*h, rec.version))
            forward(msg, slot, rec.update, rec.version);
    }
}

// ---------------------------------------------------------------------
// SecondaryTier
// ---------------------------------------------------------------------

SecondaryTier::SecondaryTier(
    Runtime &rt,
    const std::vector<std::pair<double, double>> &positions,
    SecondaryConfig cfg)
    : rt_(rt), cfg_(cfg), rng_(cfg.seed)
{
    if (positions.empty())
        fatal("SecondaryTier: need at least one replica");
    replicas_.reserve(positions.size());
    for (std::size_t i = 0; i < positions.size(); i++) {
        auto rep = std::make_unique<SecondaryReplica>(*this, i);
        rep->nodeId_ = rt_.addNode(rep.get(), positions[i].first,
                                    positions[i].second);
        byNode_[rep->nodeId_] = i;
        replicas_.push_back(std::move(rep));
    }
}

void
SecondaryTier::rebuildTree()
{
    for (ReplicaSet &set : sets_)
        buildTree(set, true);
}

void
SecondaryTier::buildTree(ReplicaSet &set, bool upOnly)
{
    std::vector<NodeId> nodes;
    nodes.reserve(set.members.size());
    for (std::uint32_t i : set.members) {
        NodeId n = replicas_[i]->nodeId();
        if (i != 0 && (!upOnly || rt_.isUp(n)))
            nodes.push_back(n);
    }
    set.tree = std::make_unique<DisseminationTree>(
        rt_, replicas_[0]->nodeId(), nodes, cfg_.treeFanout);
}

void
SecondaryTier::addHosts(const Guid &obj, const std::vector<std::size_t> &hosts)
{
    std::uint32_t slot = findSlot(obj);
    if (slot == noSlot)
        slot = makeSet(obj, {0}, false);
    ReplicaSet &set = sets_[slot];
    for (std::size_t i : hosts) {
        if (i == 0) {
            set.rootHosts = true;
            continue;
        }
        auto pos = std::lower_bound(set.members.begin(), set.members.end(), i);
        if (pos != set.members.end() && *pos == i)
            continue;
        set.held.emplace(set.held.begin() + (pos - set.members.begin()));
        set.members.insert(pos, static_cast<std::uint32_t>(i));
    }
    buildTree(set, false);
    catchUp(obj, set);
}

void
SecondaryTier::catchUp(const Guid &obj, const ReplicaSet &set)
{
    const VersionNum root = replicas_[0]->committedVersion(obj);
    for (std::uint32_t i : set.members) {
        if (replicas_[i]->committedVersion(obj) < root)
            replicas_[i]->fetchFromParent(obj);
    }
}

void
SecondaryTier::removeHost(const Guid &obj, std::size_t i)
{
    if (!isHost(obj, i))
        return;
    ReplicaSet &set = sets_[findSlot(obj)];
    if (i == 0) {
        set.rootHosts = false; // the root keeps its entry and tree
        return;
    }
    auto pos = std::lower_bound(set.members.begin(), set.members.end(), i);
    set.held.erase(set.held.begin() + (pos - set.members.begin()));
    set.members.erase(pos);
    buildTree(set, false);
    catchUp(obj, set);
}

bool
SecondaryTier::isHost(const Guid &obj, std::size_t i) const
{
    const std::uint32_t slot = findSlot(obj);
    if (slot == noSlot)
        return false;
    const ReplicaSet &set = sets_[slot];
    return i == 0 ? set.rootHosts
                  : std::binary_search(set.members.begin(),
                                       set.members.end(), i);
}

std::vector<std::size_t>
SecondaryTier::hosts(const Guid &obj) const
{
    std::vector<std::size_t> out;
    const std::uint32_t slot = findSlot(obj);
    if (slot == noSlot)
        return out;
    const ReplicaSet &set = sets_[slot];
    for (std::uint32_t i : set.members) {
        if (i != 0 || set.rootHosts)
            out.push_back(i);
    }
    return out;
}

std::vector<Guid>
SecondaryTier::objects() const
{
    std::vector<Guid> out;
    out.reserve(slotsByGuid_.size());
    for (std::uint32_t slot : slotsByGuid_)
        out.push_back(sets_[slot].empty->guid());
    return out;
}

bool
SecondaryTier::isMember(const Guid &obj, std::size_t i) const
{
    const std::uint32_t slot = findSlot(obj);
    return slot != noSlot && heldAt(slot, i) != nullptr;
}

const DisseminationTree &
SecondaryTier::treeOf(const Guid &obj) const
{
    const std::uint32_t slot = findSlot(obj);
    OS_CHECK(slot != noSlot, "SecondaryTier::treeOf: unseen object");
    return *sets_[slot].tree;
}

SecondaryTier::Held *
SecondaryTier::heldAt(std::uint32_t slot, std::size_t i)
{
    return const_cast<Held *>(std::as_const(*this).heldAt(slot, i));
}

const SecondaryTier::Held *
SecondaryTier::heldAt(std::uint32_t slot, std::size_t i) const
{
    const ReplicaSet &set = sets_[slot];
    auto pos = std::lower_bound(set.members.begin(), set.members.end(), i);
    if (pos == set.members.end() || *pos != i)
        return nullptr;
    return &set.held[static_cast<std::size_t>(pos - set.members.begin())];
}

std::uint32_t
SecondaryTier::slotFor(const Guid &obj)
{
    const std::uint32_t slot = findSlot(obj);
    if (slot != noSlot)
        return slot;
    std::vector<std::uint32_t> every(replicas_.size());
    for (std::size_t i = 0; i < every.size(); i++)
        every[i] = static_cast<std::uint32_t>(i);
    const std::uint32_t made = makeSet(obj, std::move(every), true);
    buildTree(sets_[made], false);
    return made;
}

std::uint32_t
SecondaryTier::makeSet(const Guid &obj, std::vector<std::uint32_t> members,
                       bool rootHosts)
{
    const auto slot = static_cast<std::uint32_t>(sets_.size());
    slotOf_.emplace(obj, slot);
    const std::size_t n = members.size();
    sets_.push_back(ReplicaSet{DataObject::empty(obj), std::move(members),
                               std::vector<Held>(n), {}, rootHosts});
    auto pos = std::lower_bound(
        slotsByGuid_.begin(), slotsByGuid_.end(), obj,
        [this](std::uint32_t s, const Guid &g) {
            return sets_[s].empty->guid() < g;
        });
    slotsByGuid_.insert(pos, slot);
    return slot;
}

std::uint32_t
SecondaryTier::findSlot(const Guid &obj) const
{
    auto it = slotOf_.find(obj);
    return it == slotOf_.end() ? noSlot : it->second;
}

void
SecondaryTier::startAntiEntropy()
{
    antiEntropyOn_ = true;
    for (auto &rep : replicas_)
        rep->scheduleAntiEntropy();
}

void
SecondaryTier::submitTentative(std::size_t i, const Update &u)
{
    replicas_[i]->storeTentative(shareUpdate(u), true);
}

void
SecondaryTier::injectCommitted(SharedUpdate u, VersionNum version)
{
    OS_DCHECK(u->identityCached(),
              "injectCommitted: update shared with a cold memo");
    OS_DCHECK(version >= 1, "injectCommitted: version 0 is no commit");
    SecondaryReplica &root = *replicas_[0];
    const std::uint32_t slot = slotFor(u->objectGuid);
    {
        SecMetricIds &sm = secMetrics();
        sm.reg->inc(sm.injects);
    }
    if (cfg_.treePush) {
        // Deliver to the root as a push so it forwards down the tree.
        std::size_t wire = u->wireSize() + 8;
        root.onPush(makeMessage("sec.push",
                                PushBody{std::move(u), version, slot},
                                wire));
    } else {
        // Epidemic-only ablation: the root learns the commit; anti-
        // entropy must carry it to everyone else.
        root.applyCommitted(*root.hold(slot), std::move(u), version);
    }
}

bool
SecondaryTier::allCommitted(const Guid &obj, VersionNum v) const
{
    const std::uint32_t slot = findSlot(obj);
    if (slot == noSlot)
        return v == 0;
    for (const Held &h : sets_[slot].held) {
        if ((h.state ? h.state->version() : 0) < v)
            return false;
    }
    return true;
}

std::size_t
SecondaryTier::tentativeSpread(const Guid &id) const
{
    std::size_t n = 0;
    for (const auto &rep : replicas_) {
        if (rep->tentative_.count(id))
            n++;
    }
    return n;
}

std::uint64_t
SecondaryTier::pushRetransmits() const
{
    std::uint64_t n = 0;
    for (const auto &rep : replicas_)
        n += rep->pushRetransmits_;
    return n;
}

} // namespace oceanstore
