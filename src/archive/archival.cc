#include "archive/archival.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/logging.h"

namespace oceanstore {

namespace {

/** Interned metric ids, registered once on first use. */
struct ArchMetricIds
{
    MetricsRegistry *reg;
    MetricsRegistry::Id disperses, fragmentsStored, reconstructs,
        fragmentRequests, escalationRequests, reconstructDone,
        auditSweeps, auditSamples, auditMismatches, auditRepairs,
        auditDeferred;

    ArchMetricIds()
        : reg(&MetricsRegistry::global()),
          disperses(reg->counter("archive.disperses")),
          fragmentsStored(reg->counter("archive.fragments_stored")),
          reconstructs(reg->counter("archive.reconstructs")),
          fragmentRequests(reg->counter("archive.fragment_requests")),
          escalationRequests(
              reg->counter("archive.escalation_requests")),
          reconstructDone(
              reg->counter("archive.reconstructs_succeeded")),
          auditSweeps(reg->counter("archive.audit.sweeps")),
          auditSamples(reg->counter("archive.audit.samples")),
          auditMismatches(reg->counter("archive.audit.mismatches")),
          auditRepairs(reg->counter("archive.audit.repairs")),
          auditDeferred(reg->counter("archive.audit.deferred"))
    {
    }
};

ArchMetricIds &
archMetrics()
{
    static ArchMetricIds ids;
    return ids;
}

struct StoreBody
{
    Fragment fragment;
};

struct RequestBody
{
    Guid archive;
    std::uint32_t index = 0;
    std::uint64_t ticket = 0;
};

struct FragmentBody
{
    Fragment fragment;
    std::uint64_t ticket = 0;
};

} // namespace

// ---------------------------------------------------------------------
// ArchivalServer
// ---------------------------------------------------------------------

ArchivalServer::ArchivalServer(ArchivalSystem &sys, std::size_t index)
    : sys_(sys), index_(index)
{
}

std::string
ArchivalServer::fragmentKey(const Guid &archive, std::uint32_t index)
{
    return guidKey("frag/", archive, index);
}

std::size_t
ArchivalServer::fragmentCount() const
{
    std::size_t n = 0;
    if (LogStore *store = runningStore(storage_))
        store->scanKeys("frag/", [&](const std::string &) { n++; });
    return n;
}

bool
ArchivalServer::holds(const Guid &archive, std::uint32_t index) const
{
    LogStore *store = runningStore(storage_);
    return store && store->contains(fragmentKey(archive, index));
}

std::optional<Fragment>
ArchivalServer::fragment(const Guid &archive, std::uint32_t index)
{
    LogStore *store = runningStore(storage_);
    if (!store)
        return std::nullopt;
    const std::string key = fragmentKey(archive, index);
    auto raw = store->view(key);
    if (!raw)
        return std::nullopt;
    auto frag = Fragment::deserialize(*raw);
    if (!frag)
        logWarn("archive: undecodable stored fragment '", key,
                "' on server ", index_);
    return frag;
}

std::vector<std::pair<Guid, std::uint32_t>>
ArchivalServer::heldFragments() const
{
    std::vector<std::pair<Guid, std::uint32_t>> held;
    LogStore *store = runningStore(storage_);
    if (!store)
        return held;
    store->scanKeys("frag/", [&](const std::string &key) {
        // Skip a key storeFragment() never wrote.
        if (auto parsed = parseGuidKey(key, "frag/"))
            held.push_back(*parsed);
    });
    std::sort(held.begin(), held.end());
    return held;
}

bool
ArchivalServer::storeFragment(const Fragment &fragment)
{
    LogStore *store = runningStore(storage_);
    return store &&
           store->put(fragmentKey(fragment.archiveGuid, fragment.index),
                      fragment.serialize()) == StorageStatus::Ok;
}

void
ArchivalServer::dropFragment(const Guid &archive, std::uint32_t index)
{
    if (LogStore *store = runningStore(storage_))
        store->erase(fragmentKey(archive, index));
}

void
ArchivalServer::handleMessage(const Message &msg)
{
    if (msg.type == "arch.store") {
        const auto &body = messageBody<StoreBody>(msg);
        // Fragments are self-verifying; never store garbage.
        if (!body.fragment.verify())
            return;
        storeFragment(body.fragment);
    } else if (msg.type == "arch.request") {
        const auto &body = messageBody<RequestBody>(msg);
        auto frag = fragment(body.archive, body.index);
        if (!frag)
            return;
        const std::size_t wire = frag->wireSize() + 8;
        sys_.rt().send(nodeId_, msg.src,
                        makeMessage("arch.fragment",
                                    FragmentBody{std::move(*frag),
                                                 body.ticket},
                                    wire));
    }
}

// ---------------------------------------------------------------------
// ArchivalClient
// ---------------------------------------------------------------------

ArchivalClient::ArchivalClient(ArchivalSystem &sys)
    : sys_(sys)
{
}

ArchivalClient::~ArchivalClient()
{
    // Cancel pending hard-timeout events before the network forgets
    // us: their callbacks capture `this`.
    // oslint-allow(unordered-iteration): cancel only nulls slots, any order
    for (auto &[ticket, pr] : pending_) {
        if (pr.failTimer != invalidEventId)
            sys_.rt_.cancel(pr.failTimer);
    }
    if (nodeId_ != invalidNode)
        sys_.rt_.removeNode(nodeId_);
}

void
ArchivalClient::handleMessage(const Message &msg)
{
    if (msg.type != "arch.fragment")
        return;
    const auto &body = messageBody<FragmentBody>(msg);
    auto it = pending_.find(body.ticket);
    if (it == pending_.end() || it->second.done)
        return;
    PendingReconstruction &pr = it->second;

    const Fragment &f = body.fragment;
    if (f.archiveGuid != pr.archive || !f.verify())
        return; // wrong or corrupted fragment: discard
    if (f.index >= pr.haveIndex.size() || pr.haveIndex[f.index])
        return;
    pr.haveIndex[f.index] = true;
    pr.received.push_back(f);
    maybeFinish(body.ticket);
}

void
ArchivalClient::maybeFinish(std::uint64_t ticket)
{
    auto it = pending_.find(ticket);
    OS_CHECK(it != pending_.end(),
             "maybeFinish for unknown ticket ", ticket);
    PendingReconstruction &pr = it->second;
    if (pr.done || pr.received.size() < pr.codec->dataFragments())
        return;

    // handleMessage verified each fragment against pr.archive and kept
    // one per index: decode them without hashing them again.
    auto data = decodeVerified(*pr.codec, pr.originalSize, pr.received);
    // With k verified fragments decode can only fail for Tornado-
    // style codecs (footnote 12): keep collecting in that case.
    if (!data.has_value())
        return;

    pr.done = true;
    if (pr.retry)
        pr.retry->succeed();
    sys_.rt().cancel(pr.failTimer);
    pr.failTimer = invalidEventId;
    {
        ArchMetricIds &am = archMetrics();
        am.reg->inc(am.reconstructDone);
    }
    ReconstructResult res;
    res.success = true;
    res.data = std::move(*data);
    res.latency = sys_.rt().now() - pr.startTime;
    res.fragmentsRequested = pr.requested;
    res.fragmentsReceived = static_cast<unsigned>(pr.received.size());
    if (pr.callback)
        pr.callback(res);
}

// ---------------------------------------------------------------------
// ArchivalSystem
// ---------------------------------------------------------------------

ArchivalSystem::ArchivalSystem(
    Runtime &rt,
    const std::vector<std::pair<double, double>> &positions,
    const std::vector<unsigned> &domains, ArchiveConfig cfg)
    : rt_(rt), cfg_(cfg), auditRng_(cfg.audit.seed)
{
    if (positions.size() != domains.size())
        fatal("ArchivalSystem: positions/domains size mismatch");
    servers_.reserve(positions.size());
    for (std::size_t i = 0; i < positions.size(); i++) {
        auto srv = std::make_unique<ArchivalServer>(*this, i);
        srv->nodeId_ = rt_.addNode(srv.get(), positions[i].first,
                                    positions[i].second);
        srv->domain_ = domains[i];
        servers_.push_back(std::move(srv));
    }
}

ArchivalSystem::~ArchivalSystem()
{
    stopAudit();
}

void
ArchivalSystem::setDomainReliability(unsigned domain, double reliability)
{
    domainReliability_[domain] = reliability;
    for (auto &srv : servers_) {
        if (srv->domain_ == domain)
            srv->reliability_ = reliability;
    }
}

std::unique_ptr<ArchivalClient>
ArchivalSystem::makeClient(double x, double y)
{
    auto client = std::make_unique<ArchivalClient>(*this);
    client->nodeId_ = rt_.addNode(client.get(), x, y);
    return client;
}

std::vector<std::vector<std::size_t>>
ArchivalSystem::domainGroups(const std::vector<std::size_t> &exclude) const
{
    std::map<unsigned, std::vector<std::size_t>> by_domain;
    for (std::size_t i = 0; i < servers_.size(); i++) {
        if (!rt_.isUp(servers_[i]->nodeId()) ||
            std::find(exclude.begin(), exclude.end(), i) != exclude.end())
            continue;
        by_domain[servers_[i]->domain_].push_back(i);
    }

    std::vector<unsigned> domain_order;
    for (const auto &[d, members] : by_domain)
        domain_order.push_back(d);
    std::stable_sort(domain_order.begin(), domain_order.end(),
                     [&](unsigned a, unsigned b) {
                         auto ra = domainReliability_.count(a)
                                       ? domainReliability_.at(a)
                                       : 1.0;
                         auto rb = domainReliability_.count(b)
                                       ? domainReliability_.at(b)
                                       : 1.0;
                         return ra > rb;
                     });

    std::vector<std::vector<std::size_t>> groups;
    for (unsigned d : domain_order)
        groups.push_back(std::move(by_domain[d]));
    return groups;
}

std::vector<std::size_t>
ArchivalSystem::dispersalOrder(const std::vector<std::size_t> &exclude) const
{
    // Round-robin across domains so that the loss of any one domain
    // takes out at most ceil(count / #domains) of the first count
    // servers.
    const std::vector<std::vector<std::size_t>> groups =
        domainGroups(exclude);
    std::vector<std::size_t> order;
    for (std::size_t round = 0; true; round++) {
        const std::size_t before = order.size();
        for (const auto &group : groups) {
            if (round < group.size())
                order.push_back(group[round]);
        }
        if (order.size() == before)
            return order;
    }
}

Guid
ArchivalSystem::disperse(const ErasureCodec &codec, const Bytes &data,
                         std::size_t source)
{
    // Root span of the dispersal: every fragment store message
    // becomes a child, so traces attribute archival traffic to the
    // operation that caused it.
    ScopedSpan span("archive", "archive.disperse", rt_.now(),
                    servers_[source]->nodeId());
    FragmentSet set = fragmentObject(codec, data);
    auto targets = dispersalOrder({source});
    if (targets.size() < set.fragments.size())
        fatal("ArchivalSystem: not enough up servers for dispersal");

    Placement placement;
    placement.codec = &codec;
    placement.originalSize = set.originalSize;
    placement.holders.resize(set.fragments.size());

    NodeId src_node = servers_[source]->nodeId();
    {
        ArchMetricIds &am = archMetrics();
        am.reg->inc(am.disperses);
        am.reg->inc(am.fragmentsStored, set.fragments.size());
    }
    for (std::size_t i = 0; i < set.fragments.size(); i++) {
        placement.holders[i] = targets[i];
        StoreBody body{set.fragments[i]};
        rt_.send(src_node, servers_[targets[i]]->nodeId(),
                  makeMessage("arch.store", body,
                              set.fragments[i].wireSize()));
    }
    placements_[set.archiveGuid] = std::move(placement);
    return set.archiveGuid;
}

void
ArchivalSystem::reconstruct(
    ArchivalClient &client, const Guid &archive,
    std::function<void(const ReconstructResult &)> done)
{
    auto pit = placements_.find(archive);
    if (pit == placements_.end()) {
        ReconstructResult res;
        if (done)
            done(res);
        return;
    }
    const Placement &placement = pit->second;
    unsigned k = placement.codec->dataFragments();
    unsigned first_wave = static_cast<unsigned>(
        std::ceil(cfg_.requestOverfactor * static_cast<double>(k)));
    first_wave = std::min<unsigned>(
        first_wave, static_cast<unsigned>(placement.holders.size()));

    std::uint64_t ticket = client.nextTicket_++;
    auto &pr = client.pending_[ticket];
    pr.archive = archive;
    pr.codec = placement.codec;
    pr.originalSize = placement.originalSize;
    pr.startTime = rt_.now();
    pr.haveIndex.assign(placement.codec->totalFragments(), false);
    pr.callback = std::move(done);

    // Order fragment holders by proximity ("closer fragments tend to
    // be discovered first" — the location tree's search order).
    std::vector<std::uint32_t> order(placement.holders.size());
    for (std::uint32_t i = 0; i < order.size(); i++)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  double la = rt_.latency(
                      client.nodeId(),
                      servers_[placement.holders[a]]->nodeId());
                  double lb = rt_.latency(
                      client.nodeId(),
                      servers_[placement.holders[b]]->nodeId());
                  if (la != lb)
                      return la < lb;
                  return a < b;
              });

    auto request_one = [this, &client, archive,
                        ticket](std::uint32_t frag_index,
                                std::size_t holder) {
        RequestBody body{archive, frag_index, ticket};
        {
            ArchMetricIds &am = archMetrics();
            am.reg->inc(am.fragmentRequests);
        }
        rt_.send(client.nodeId(), servers_[holder]->nodeId(),
                  makeMessage("arch.request", body,
                              Guid::numBytes + 12));
    };
    {
        ArchMetricIds &am = archMetrics();
        am.reg->inc(am.reconstructs);
    }

    for (unsigned i = 0; i < first_wave; i++) {
        request_one(order[i], placement.holders[order[i]]);
        pr.requested++;
    }

    // Escalation: every retry period, re-request every fragment not
    // yet received (requests or replies may have been dropped), until
    // the reconstruction finishes or the hard timeout fires.  The
    // first wave above is attempt 1; constant-interval backoff
    // (backoff factor 1) keeps the historical timing, and the attempt
    // bound lands the final escalation strictly before failTimeout.
    unsigned escalations = std::max<unsigned>(
        1, static_cast<unsigned>(
               std::ceil(cfg_.failTimeout / cfg_.retryTimeout)) -
               1);
    RetryPolicy policy{cfg_.retryTimeout, 1.0, cfg_.retryTimeout,
                       escalations + 1, 0.0};
    pr.retry = std::make_unique<RpcCall>(rt_, policy,
                                         archive.hash64() ^ ticket);
    pr.retry->arm([this, &client, archive, ticket,
                   request_one](unsigned) {
        auto it = client.pending_.find(ticket);
        if (it == client.pending_.end() || it->second.done)
            return;
        auto pit2 = placements_.find(archive);
        if (pit2 == placements_.end())
            return;
        for (std::uint32_t idx = 0;
             idx < pit2->second.holders.size(); idx++) {
            if (it->second.haveIndex[idx])
                continue;
            {
                ArchMetricIds &am = archMetrics();
                am.reg->inc(am.escalationRequests);
            }
            request_one(idx, pit2->second.holders[idx]);
            it->second.requested++;
        }
    });

    // Failure: give up after the hard timeout.  The handle is kept in
    // the pending entry so an early finish cancels the timer.
    pr.failTimer = rt_.schedule(cfg_.failTimeout, [this, &client,
                                                          ticket]() {
        auto it = client.pending_.find(ticket);
        if (it == client.pending_.end() || it->second.done)
            return;
        it->second.done = true;
        if (it->second.retry)
            it->second.retry->succeed();
        ReconstructResult res;
        res.latency = rt_.now() - it->second.startTime;
        res.fragmentsRequested = it->second.requested;
        res.fragmentsReceived =
            static_cast<unsigned>(it->second.received.size());
        if (it->second.callback)
            it->second.callback(res);
    });
}

unsigned
ArchivalSystem::survivingFragments(const Guid &archive) const
{
    auto it = placements_.find(archive);
    if (it == placements_.end())
        return 0;
    unsigned alive = 0;
    const Placement &p = it->second;
    for (std::size_t i = 0; i < p.holders.size(); i++) {
        const auto &srv = servers_[p.holders[i]];
        if (rt_.isUp(srv->nodeId()) &&
            srv->holds(archive, static_cast<std::uint32_t>(i))) {
            alive++;
        }
    }
    return alive;
}

unsigned
ArchivalSystem::repairSweep()
{
    unsigned repaired = 0;
    for (auto &[archive, placement] : placements_) {
        unsigned k = placement.codec->dataFragments();
        unsigned threshold = cfg_.repairThreshold
                                 ? cfg_.repairThreshold
                                 : k + k / 2;
        unsigned alive = survivingFragments(archive);
        if (alive >= threshold || alive < k)
            continue; // healthy, or beyond repair

        std::vector<std::uint32_t> lost;
        for (std::uint32_t i = 0; i < placement.holders.size(); i++) {
            const auto &srv = servers_[placement.holders[i]];
            if (!rt_.isUp(srv->nodeId()) || !srv->holds(archive, i))
                lost.push_back(i);
        }
        if (repairFragments(archive, placement, lost) == lost.size())
            repaired++;
    }
    return repaired;
}

bool
ArchivalSystem::forget(const Guid &archive)
{
    auto it = placements_.find(archive);
    if (it == placements_.end())
        return false;
    // Maintenance-plane deletion: the sweep process has authority
    // over placement state, so fragments are dropped directly rather
    // than via simulated messages (consistent with repairSweep).
    for (std::size_t i = 0; i < it->second.holders.size(); i++) {
        servers_[it->second.holders[i]]->dropFragment(
            archive, static_cast<std::uint32_t>(i));
    }
    placements_.erase(it);
    return true;
}

std::vector<Guid>
ArchivalSystem::archives() const
{
    std::vector<Guid> out;
    out.reserve(placements_.size());
    for (const auto &[g, p] : placements_)
        out.push_back(g);
    return out;
}

// ---------------------------------------------------------------------
// Adversarial corruption & sampled audit
// ---------------------------------------------------------------------

unsigned
ArchivalSystem::corruptServer(std::size_t server, Rng &rng,
                              double fraction)
{
    OS_CHECK(server < servers_.size(), "corruptServer: index ", server,
             " of ", servers_.size());
    ArchivalServer &srv = *servers_[server];
    unsigned corrupted = 0;
    for (const auto &[archive, index] : srv.heldFragments()) {
        if (fraction < 1.0 && !rng.chance(fraction))
            continue;
        auto frag = srv.fragment(archive, index);
        if (!frag || frag->data.empty())
            continue;
        // Payload no longer matches the Merkle proof; the proof and
        // header stay intact so the fragment still *looks* plausible.
        // Written back to the server's log with a valid storage
        // checksum (the adversary controls the medium): the corruption
        // survives a restart CRC-intact, detectable only by the
        // Merkle-verified audit.
        frag->data = withByteFlipped(frag->data, 0, 0xa5);
        srv.storeFragment(*frag);
        corrupted++;
    }
    return corrupted;
}

bool
ArchivalSystem::corruptFragment(const Guid &archive, std::uint32_t index)
{
    auto pit = placements_.find(archive);
    if (pit == placements_.end() || index >= pit->second.holders.size())
        return false;
    ArchivalServer &srv = *servers_[pit->second.holders[index]];
    auto frag = srv.fragment(archive, index);
    if (!frag || frag->data.empty())
        return false;
    frag->data = withByteFlipped(frag->data, 0, 0xa5);
    srv.storeFragment(*frag);
    return true;
}

unsigned
ArchivalSystem::corruptedFragments() const
{
    unsigned bad = 0;
    for (const auto &[archive, p] : placements_) {
        for (std::size_t i = 0; i < p.holders.size(); i++) {
            auto f = servers_[p.holders[i]]->fragment(
                archive, static_cast<std::uint32_t>(i));
            if (f && !f->verify())
                bad++;
        }
    }
    return bad;
}

unsigned
ArchivalSystem::repairFragments(const Guid &archive, Placement &placement,
                                const std::vector<std::uint32_t> &missing)
{
    // Gather only fragments that pass verification (a maintenance
    // process with direct access to server state, per Section 4.5's
    // background sweep): a Byzantine majority of *served* bytes then
    // costs no decode time, and the decode hashes nothing again.
    std::vector<Fragment> have;
    std::map<unsigned, unsigned> live; // domain -> verified fragments
    for (std::uint32_t i = 0; i < placement.holders.size(); i++) {
        const auto &srv = servers_[placement.holders[i]];
        if (!rt_.isUp(srv->nodeId()))
            continue;
        auto f = srv->fragment(archive, i);
        if (f && f->archiveGuid == archive && f->index == i &&
            f->verify()) {
            have.push_back(std::move(*f));
            live[srv->domain_]++;
        }
    }
    auto data = decodeVerified(*placement.codec, placement.originalSize,
                               have);
    if (!data.has_value())
        return 0; // beyond the erasure threshold: unrepairable

    FragmentSet set = fragmentObject(*placement.codec, *data);
    // Fresh homes: live servers holding no fragment of this archive.
    // Each is offered at most one fragment, so one later failure cannot
    // take out several re-homed ones.  A re-homed fragment goes to the
    // domain holding the fewest of the archive's live fragments, ties
    // to the more reliable domain, so the sweep's many indices and the
    // audit's one at a time both keep the spread dispersal set up.
    std::vector<std::vector<std::size_t>> fresh =
        domainGroups(placement.holders);
    std::vector<std::size_t> next(fresh.size(), 0);
    unsigned restored = 0;
    for (std::uint32_t index : missing) {
        const Fragment &frag = set.fragments[index];
        ArchivalServer &holder = *servers_[placement.holders[index]];
        if (rt_.isUp(holder.nodeId()) && holder.storeFragment(frag)) {
            live[holder.domain_]++;
            restored++;
            continue;
        }
        for (;;) {
            std::size_t best = fresh.size();
            for (std::size_t g = 0; g < fresh.size(); g++) {
                if (next[g] == fresh[g].size())
                    continue;
                if (best == fresh.size() ||
                    live[servers_[fresh[g][0]]->domain_] <
                        live[servers_[fresh[best][0]]->domain_])
                    best = g;
            }
            if (best == fresh.size())
                break; // no disk takes it: it stays missing
            const std::size_t home = fresh[best][next[best]++];
            if (!servers_[home]->storeFragment(frag))
                continue;
            placement.holders[index] = home;
            live[servers_[home]->domain_]++;
            restored++;
            break;
        }
    }
    return restored;
}

ArchivalSystem::AuditReport
ArchivalSystem::auditSweep()
{
    AuditReport rep;
    auditSweeps_++;
    ArchMetricIds &am = archMetrics();
    am.reg->inc(am.auditSweeps);

    // Budget window rollover (aligned to windowStart_, so an idle
    // stretch cannot bank more than one window's budget).
    double now = rt_.now();
    if (cfg_.audit.budgetWindow > 0 &&
        now >= windowStart_ + cfg_.audit.budgetWindow) {
        double gone = std::floor((now - windowStart_) /
                                 cfg_.audit.budgetWindow);
        windowStart_ += gone * cfg_.audit.budgetWindow;
        windowUsed_ = 0;
    }

    std::size_t total = 0;
    for (const auto &[g, p] : placements_)
        total += p.holders.size();
    if (total == 0)
        return rep;

    for (unsigned s = 0; s < cfg_.audit.samplesPerSweep; s++) {
        if (windowUsed_ >= cfg_.audit.windowBudget) {
            rep.deferred++;
            auditDeferred_++;
            am.reg->inc(am.auditDeferred);
            continue;
        }
        windowUsed_++;
        windowPeak_ = std::max(windowPeak_, windowUsed_);
        rep.sampled++;
        auditSamples_++;
        am.reg->inc(am.auditSamples);

        // Uniform draw over every (archive, fragment index) pair.
        std::size_t flat =
            static_cast<std::size_t>(auditRng_.below(total));
        auto pit = placements_.begin();
        while (flat >= pit->second.holders.size()) {
            flat -= pit->second.holders.size();
            ++pit;
        }
        const Guid &archive = pit->first;
        Placement &placement = pit->second;
        auto index = static_cast<std::uint32_t>(flat);

        const auto &srv = servers_[placement.holders[flat]];
        bool healthy = rt_.isUp(srv->nodeId());
        if (healthy) {
            auto f = srv->fragment(archive, index);
            healthy = f && f->verify();
        }
        if (healthy)
            continue;
        rep.mismatches++;
        auditMismatches_++;
        am.reg->inc(am.auditMismatches);
        if (repairFragments(archive, placement, {index}) == 1) {
            rep.repaired++;
            auditRepairs_++;
            am.reg->inc(am.auditRepairs);
        }
    }
    return rep;
}

void
ArchivalSystem::armAuditTimer()
{
    auditTimer_ = rt_.schedule(cfg_.audit.sweepPeriod, [this]() {
        auditSweep();
        armAuditTimer();
    });
}

void
ArchivalSystem::startAudit()
{
    if (auditTimer_ != invalidEventId)
        return;
    windowStart_ = rt_.now();
    windowUsed_ = 0;
    armAuditTimer();
}

void
ArchivalSystem::stopAudit()
{
    rt_.cancel(auditTimer_);
    auditTimer_ = invalidEventId;
}

} // namespace oceanstore
