#include "plaxton/mesh.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/logging.h"

namespace oceanstore {

namespace {

/** Interned metric ids, registered once on first use. */
struct PlaxtonMetricIds
{
    MetricsRegistry *reg;
    MetricsRegistry::Id lookups, lookupsFailed, publishes, repairs;
    MetricsRegistry::Id lookupHops; //!< histogram

    PlaxtonMetricIds()
        : reg(&MetricsRegistry::global()),
          lookups(reg->counter("plaxton.lookups")),
          lookupsFailed(reg->counter("plaxton.lookups_failed")),
          publishes(reg->counter("plaxton.publishes")),
          repairs(reg->counter("plaxton.table_repairs")),
          lookupHops(
              reg->histogram("plaxton.lookup_hops", 0.0, 16.0, 16))
    {
    }
};

PlaxtonMetricIds &
plaxtonMetrics()
{
    static PlaxtonMetricIds ids;
    return ids;
}

} // namespace

PlaxtonMesh::PlaxtonMesh(Runtime &rt, const std::vector<NodeId> &members,
                         Rng &rng, PlaxtonConfig cfg)
    : rt_(rt), cfg_(cfg), members_(members)
{
    states_.resize(members_.size());
    for (std::size_t i = 0; i < members_.size(); i++) {
        addSlot(members_[i], i);
        states_[i].id = Guid::random(rng);
        states_[i].alive = true;
    }
    for (std::size_t i = 0; i < members_.size(); i++)
        buildTable(i);
}

void
PlaxtonMesh::addSlot(NodeId n, std::size_t idx)
{
    OS_CHECK(n != invalidNode, "PlaxtonMesh: invalid member NodeId");
    if (n >= slot_.size())
        slot_.resize(static_cast<std::size_t>(n) + 1, noSlot);
    OS_CHECK(slot_[n] == noSlot, "PlaxtonMesh: duplicate member NodeId ",
             n);
    slot_[n] = static_cast<std::uint32_t>(idx);
}

std::size_t
PlaxtonMesh::indexOf(NodeId n) const
{
    std::uint32_t idx = slotOf(n);
    if (idx == noSlot)
        fatal("PlaxtonMesh: node is not a member");
    return idx;
}

const Guid &
PlaxtonMesh::guidOf(NodeId n) const
{
    return states_[indexOf(n)].id;
}

bool
PlaxtonMesh::alive(NodeId n) const
{
    std::uint32_t idx = slotOf(n);
    return idx != noSlot && states_[idx].alive && rt_.isUp(n);
}

bool
PlaxtonMesh::isSuspect(NodeId n) const
{
    std::uint32_t idx = slotOf(n);
    return idx != noSlot && states_[idx].suspect;
}

void
PlaxtonMesh::buildTable(std::size_t idx)
{
    NodeState &st = states_[idx];
    NodeId self = members_[idx];

    st.table.assign(std::size_t{levels} * Guid::digitBase, Entry{});
    std::vector<double> lats(st.table.size() * entryWidth);

    // Scan all members once; each is offered to levels
    // 0..min(matching suffix, levels-1) in its own digit column, and
    // each entry keeps the closest; "closest" is with respect to the
    // underlying IP latency (footnote 5).
    for (std::size_t j = 0; j < members_.size(); j++) {
        const NodeState &other = states_[j];
        if (!other.alive)
            continue;
        std::size_t m = st.id.matchingSuffix(other.id);
        std::size_t max_lvl = std::min<std::size_t>(m, levels - 1);
        double lat = rt_.latency(self, members_[j]);
        for (std::size_t lvl = 0; lvl <= max_lvl; lvl++) {
            std::size_t e = lvl * Guid::digitBase + other.id.digit(lvl);
            offer(st.table[e], &lats[e * entryWidth], members_[j], lat);
        }
    }
}

void
PlaxtonMesh::offer(Entry &e, double *lats, NodeId n, double lat)
{
    unsigned pos = 0;
    while (pos < entryWidth && e.candidates[pos] != invalidNode &&
           (lats[pos] < lat ||
            (lats[pos] == lat && e.candidates[pos] < n)))
        pos++;
    if (pos == entryWidth)
        return;
    for (unsigned k = entryWidth - 1; k > pos; k--) {
        e.candidates[k] = e.candidates[k - 1];
        lats[k] = lats[k - 1];
    }
    e.candidates[pos] = n;
    lats[pos] = lat;
}

NodeId
PlaxtonMesh::aliveCandidate(const Entry &e) const
{
    for (NodeId n : e.candidates) {
        if (n == invalidNode)
            break;
        if (alive(n))
            return n;
    }
    return invalidNode;
}

template <typename Visit>
PlaxtonMesh::WalkEnd
PlaxtonMesh::walk(NodeId from, const Guid &target, Visit &&visit) const
{
    WalkEnd end;
    if (visit(from, end.latency, end.hops))
        return end;
    if (!alive(from)) {
        end.failed = true;
        return end;
    }
    end.root = from;

    std::size_t cur = indexOf(from);
    Guid eff = target;

    for (;;) {
        const NodeState &st = states_[cur];
        NodeId cur_node = members_[cur];
        std::size_t l = st.id.matchingSuffix(eff);
        if (l >= levels)
            return end;

        // Surrogate routing: scan digit values upward from the target
        // digit until an entry with an alive candidate is found.  The
        // loopback entry (our own digit) always qualifies, so the
        // scan always terminates.
        bool advanced = false;
        for (unsigned k = 0; k < Guid::digitBase; k++) {
            unsigned d = (eff.digit(l) + k) % Guid::digitBase;
            NodeId cand = aliveCandidate(st.table[l * Guid::digitBase + d]);
            if (cand == invalidNode)
                continue;
            if (d != eff.digit(l))
                eff = eff.withDigit(l, d); // surrogate substitution
            advanced = true;
            // When cand == cur_node the digit resolves in place and
            // the suffix match grows on the next iteration.
            if (cand == cur_node)
                break;
            end.latency += rt_.latency(cur_node, cand);
            end.hops++;
            end.root = cand;
            cur = indexOf(cand);
            if (visit(cand, end.latency, end.hops))
                return end;
            break;
        }
        if (!advanced) {
            // Every candidate at this level is dead: no further
            // progress is possible; we are the (degraded) root.
            end.failed = true;
            return end;
        }
    }
}

RouteResult
PlaxtonMesh::route(NodeId from, const Guid &target) const
{
    RouteResult res;
    WalkEnd end = walk(from, target, [&](NodeId n, double, unsigned) {
        res.path.push_back(n);
        return false;
    });
    res.root = end.root;
    res.latency = end.latency;
    res.failed = end.failed;
    return res;
}

NodeId
PlaxtonMesh::rootOf(const Guid &g) const
{
    for (NodeId n : members_) {
        if (alive(n))
            return route(n, g).root;
    }
    return invalidNode;
}

std::string
PlaxtonMesh::pointerKey(const Guid &g, NodeId storer)
{
    return guidKey("ptr/", g, storer);
}

void
PlaxtonMesh::attachStorage(NodeId n, NodeStorage *storage)
{
    states_[indexOf(n)].storage = storage;
}

void
PlaxtonMesh::persistPointer(NodeId n, const Guid &g, NodeId storer)
{
    if (LogStore *store = runningStore(states_[indexOf(n)].storage))
        store->put(pointerKey(g, storer), Bytes{});
}

void
PlaxtonMesh::unpersistPointer(NodeId n, const Guid &g, NodeId storer)
{
    if (LogStore *store = runningStore(states_[indexOf(n)].storage))
        store->erase(pointerKey(g, storer));
}

unsigned
PlaxtonMesh::publishOne(const Guid &salted, const Guid &g, NodeId storer)
{
    WalkEnd end = walk(storer, salted, [&](NodeId n, double, unsigned) {
        if (states_[indexOf(n)].pointers.insert(g, storer))
            persistPointer(n, g, storer);
        return false;
    });
    return end.hops;
}

bool
PlaxtonMesh::publishes(NodeId storer, const Guid &g) const
{
    std::uint32_t idx = slotOf(storer);
    if (idx == noSlot)
        return false;
    const std::vector<Guid> &pub = states_[idx].published;
    return std::binary_search(pub.begin(), pub.end(), g);
}

unsigned
PlaxtonMesh::publish(const Guid &g, NodeId storer)
{
    unsigned hops = 0;
    for (unsigned s = 0; s < cfg_.numSalts; s++)
        hops += publishOne(g.withSalt(s), g, storer);
    std::vector<Guid> &pub = states_[indexOf(storer)].published;
    auto at = std::lower_bound(pub.begin(), pub.end(), g);
    if (at == pub.end() || *at != g)
        pub.insert(at, g);
    {
        PlaxtonMetricIds &pm = plaxtonMetrics();
        pm.reg->inc(pm.publishes);
    }
    return hops;
}

void
PlaxtonMesh::unpublish(const Guid &g, NodeId storer)
{
    for (unsigned s = 0; s < cfg_.numSalts; s++) {
        walk(storer, g.withSalt(s), [&](NodeId n, double, unsigned) {
            if (states_[indexOf(n)].pointers.erase(g, storer))
                unpersistPointer(n, g, storer);
            return false;
        });
    }
    std::vector<Guid> &pub = states_[indexOf(storer)].published;
    auto at = std::lower_bound(pub.begin(), pub.end(), g);
    if (at != pub.end() && *at == g)
        pub.erase(at);
}

LocateResult
PlaxtonMesh::locateWithSalt(NodeId from, const Guid &g,
                            unsigned salt) const
{
    // Climb hop by hop and stop at the first node holding a pointer
    // to an alive storer: the rest of the route is never computed.
    LocateResult res;
    res.saltUsed = salt;
    WalkEnd end = walk(
        from, g.withSalt(salt), [&](NodeId n, double lat, unsigned hops) {
            // Choose the closest alive storer advertised here; the
            // run is ascending, so a tie goes to the lowest NodeId.
            NodeId best = invalidNode;
            double best_lat = 0.0;
            for (NodeId storer : states_[indexOf(n)].pointers.storers(g)) {
                if (!alive(storer))
                    continue;
                double dl = rt_.latency(n, storer);
                if (best == invalidNode || dl < best_lat) {
                    best = storer;
                    best_lat = dl;
                }
            }
            if (best == invalidNode)
                return false;
            res.found = true;
            res.location = best;
            res.hops = hops;
            res.latency = lat + (best == n ? 0.0 : best_lat);
            return true;
        });
    if (!res.found) {
        res.latency = end.latency;
        res.hops = end.hops;
    }
    return res;
}

LocateResult
PlaxtonMesh::locate(NodeId from, const Guid &g) const
{
    PlaxtonMetricIds &pm = plaxtonMetrics();
    pm.reg->inc(pm.lookups);
    double wasted = 0.0;
    for (unsigned s = 0; s < cfg_.numSalts; s++) {
        LocateResult res = locateWithSalt(from, g, s);
        if (res.found) {
            res.latency += wasted; // earlier failed salt attempts
            pm.reg->observe(pm.lookupHops,
                            static_cast<double>(res.hops));
            return res;
        }
        wasted += res.latency;
    }
    pm.reg->inc(pm.lookupsFailed);
    LocateResult res;
    res.latency = wasted;
    return res;
}

void
PlaxtonMesh::insertNode(NodeId n, const Guid &id)
{
    if (slotOf(n) != noSlot)
        fatal("PlaxtonMesh::insertNode: already a member");
    std::size_t idx = states_.size();
    members_.push_back(n);
    addSlot(n, idx);
    NodeState st;
    st.id = id;
    st.alive = true;
    states_.push_back(std::move(st));

    buildTable(idx);
    announce(idx);
}

void
PlaxtonMesh::announce(std::size_t idx)
{
    const Guid &id = states_[idx].id;
    NodeId self = members_[idx];

    for (std::size_t j = 0; j < states_.size(); j++) {
        if (j == idx || !states_[j].alive)
            continue;
        NodeState &other = states_[j];
        NodeId other_node = members_[j];
        std::size_t m = other.id.matchingSuffix(id);
        std::size_t max_lvl = std::min<std::size_t>(m, levels - 1);
        double lat = rt_.latency(other_node, self);
        for (std::size_t lvl = 0; lvl <= max_lvl; lvl++) {
            Entry &e = other.table[lvl * Guid::digitBase + id.digit(lvl)];
            double lats[entryWidth] = {};
            bool present = false;
            for (unsigned k = 0; k < entryWidth; k++) {
                present = present || e.candidates[k] == self;
                if (e.candidates[k] != invalidNode)
                    lats[k] = rt_.latency(other_node, e.candidates[k]);
            }
            if (!present)
                offer(e, lats, self, lat);
        }
    }
}

void
PlaxtonMesh::removeNode(NodeId n)
{
    std::size_t idx = indexOf(n);
    states_[idx].alive = false;
    // A removed server loses its soft state: the pointers deposited
    // on it.  What it stores survives a crash (its replicas and log
    // are on disk), so its publications stay in `published` — repair()
    // skips it while it is down and restoreNode() re-deposits them.
    // The durable "ptr/" records on its own disk are likewise left
    // alone for restoreNode() to reload.
    states_[idx].pointers.clear();
}

std::size_t
PlaxtonMesh::restoreNode(NodeId n)
{
    std::size_t idx = indexOf(n);
    NodeState &st = states_[idx];
    OS_CHECK(!st.alive, "PlaxtonMesh::restoreNode(", n,
             "): member was never removed");
    st.alive = true;
    buildTable(idx);
    announce(idx);

    // Reload the durable pointer cache.  Keys are
    // "ptr/<40 hex digits>/<storer>"; anything unparsable is a
    // storage-layer bug, so fail loudly rather than skip.
    st.pointers.clear();
    std::size_t reloaded = 0;
    if (LogStore *store = runningStore(st.storage)) {
        store->scan("ptr/", [&](const std::string &key, const Bytes &) {
            auto parsed = parseGuidKey(key, "ptr/");
            OS_CHECK(parsed.has_value(),
                     "mesh restore: malformed pointer key '", key, "'");
            st.pointers.insert(parsed->first, parsed->second);
            reloaded++;
        });
    }

    // Pointers TO this node's objects were purged from the rest of
    // the mesh while it was down; re-deposit them, in Guid order
    // (publish() finds each already listed, so the list stays put).
    for (const Guid &g : st.published)
        publish(g, n);
    return reloaded;
}

void
PlaxtonMesh::repair()
{
    // 1. Purge dead candidates and refill routing tables.
    for (std::size_t i = 0; i < states_.size(); i++) {
        if (!states_[i].alive || !rt_.isUp(members_[i]))
            continue;
        buildTable(i);
        {
            PlaxtonMetricIds &pm = plaxtonMetrics();
            pm.reg->inc(pm.repairs);
        }
    }
    // 2. Drop pointers that reference dead storers, or storers that
    //    no longer publish the object: a pointer unpublish() did not
    //    reach, off the storer's current paths or on a member that was
    //    down at the time and reloaded it from its "ptr/" records.
    //    The write-through erases go out in (Guid, storer) order.
    for (std::size_t i = 0; i < states_.size(); i++) {
        NodeState &st = states_[i];
        if (!st.alive)
            continue;
        auto stale = st.pointers.collect([&](const Guid &g, NodeId s) {
            return !alive(s) || !publishes(s, g);
        });
        for (const auto &[g, storer] : stale) {
            unpersistPointer(members_[i], g, storer);
            st.pointers.erase(g, storer);
        }
    }
    // 3. Every alive storer slowly repeats the publishing process
    //    (Section 4.3.3), restoring pointers on the repaired mesh:
    //    storers in ascending NodeId, each one's objects in Guid
    //    order.
    for (NodeId storer = 0; storer < slot_.size(); storer++) {
        if (slot_[storer] == noSlot || !alive(storer))
            continue;
        for (const Guid &g : states_[slot_[storer]].published) {
            for (unsigned s = 0; s < cfg_.numSalts; s++)
                publishOne(g.withSalt(s), g, storer);
        }
    }
}

PlaxtonMesh::BeaconReport
PlaxtonMesh::beaconSweep()
{
    BeaconReport report;
    for (std::size_t i = 0; i < states_.size(); i++) {
        if (!states_[i].alive)
            continue; // already evicted
        NodeId n = members_[i];
        bool answered = rt_.isUp(n);
        bool &suspect = states_[i].suspect;
        if (answered && suspect) {
            // Second chance paid off: full state retained.
            suspect = false;
            report.reinstated++;
        } else if (!answered && !suspect) {
            suspect = true;
            report.suspects++;
        } else if (!answered && suspect) {
            // Two consecutive misses: really gone.
            suspect = false;
            removeNode(n);
            report.evicted++;
        }
    }
    return report;
}

std::vector<Guid>
PlaxtonMesh::objectsPublishedBy(NodeId storer) const
{
    std::uint32_t idx = slotOf(storer);
    if (idx == noSlot)
        return {};
    return states_[idx].published;
}

} // namespace oceanstore
