#include "plaxton/mesh.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/logging.h"

namespace oceanstore {

namespace {

/** Routing levels maintained (enough for ~16^8 nodes). */
constexpr unsigned levels = 8;
/** Backup neighbors kept per (level, digit) entry. */
constexpr unsigned redundancy = 2;

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
        index_[members_[i]] = i;
        states_[i].id = Guid::random(rng);
        states_[i].alive = true;
    }
    for (std::size_t i = 0; i < members_.size(); i++)
        buildTable(i);
    OS_CHECK(index_.size() == members_.size(),
             "PlaxtonMesh: duplicate member NodeIds");
}

std::size_t
PlaxtonMesh::indexOf(NodeId n) const
{
    auto it = index_.find(n);
    if (it == index_.end())
        fatal("PlaxtonMesh: node is not a member");
    return it->second;
}

const Guid &
PlaxtonMesh::guidOf(NodeId n) const
{
    return states_[indexOf(n)].id;
}

bool
PlaxtonMesh::alive(NodeId n) const
{
    auto it = index_.find(n);
    if (it == index_.end())
        return false;
    return states_[it->second].alive && rt_.isUp(n);
}

void
PlaxtonMesh::buildTable(std::size_t idx)
{
    NodeState &st = states_[idx];
    NodeId self = members_[idx];

    st.table.assign(levels, std::vector<Entry>(Guid::digitBase));

    // Scan all members once; each contributes candidates for levels
    // 0..min(matching suffix, levels-1) in its own digit column.
    for (std::size_t j = 0; j < members_.size(); j++) {
        const NodeState &other = states_[j];
        if (!other.alive)
            continue;
        std::size_t m = st.id.matchingSuffix(other.id);
        std::size_t max_lvl = std::min<std::size_t>(m, levels - 1);
        for (std::size_t lvl = 0; lvl <= max_lvl; lvl++) {
            unsigned d = other.id.digit(lvl);
            st.table[lvl][d].candidates.push_back(members_[j]);
        }
    }

    // Keep the 1 + redundancy closest candidates per entry; "closest"
    // is with respect to the underlying IP latency (footnote 5).
    for (auto &level : st.table) {
        for (auto &entry : level) {
            auto &c = entry.candidates;
            std::sort(c.begin(), c.end(), [&](NodeId a, NodeId b) {
                double la = rt_.latency(self, a);
                double lb = rt_.latency(self, b);
                if (la != lb)
                    return la < lb;
                return a < b;
            });
            if (c.size() > 1 + redundancy)
                c.resize(1 + redundancy);
        }
    }
}

NodeId
PlaxtonMesh::aliveCandidate(const Entry &e) const
{
    for (NodeId n : e.candidates) {
        if (alive(n))
            return n;
    }
    return invalidNode;
}

RouteResult
PlaxtonMesh::route(NodeId from, const Guid &target) const
{
    RouteResult res;
    res.path.push_back(from);

    if (!alive(from)) {
        res.failed = true;
        return res;
    }

    std::size_t cur = indexOf(from);
    Guid eff = target;

    for (;;) {
        const NodeState &st = states_[cur];
        NodeId cur_node = members_[cur];
        std::size_t l = st.id.matchingSuffix(eff);
        if (l >= levels) {
            res.root = cur_node;
            return res;
        }

        // Surrogate routing: scan digit values upward from the target
        // digit until an entry with an alive candidate is found.  The
        // loopback entry (our own digit) always qualifies, so the
        // scan always terminates.
        bool advanced = false;
        for (unsigned k = 0; k < Guid::digitBase; k++) {
            unsigned d = (eff.digit(l) + k) % Guid::digitBase;
            NodeId cand = aliveCandidate(st.table[l][d]);
            if (cand == invalidNode)
                continue;
            if (d != eff.digit(l))
                eff = eff.withDigit(l, d); // surrogate substitution
            if (cand != cur_node) {
                res.latency += rt_.latency(cur_node, cand);
                res.path.push_back(cand);
                cur = indexOf(cand);
            }
            // When cand == cur_node the digit resolves in place and
            // the suffix match grows on the next iteration.
            advanced = true;
            break;
        }
        if (!advanced) {
            // Every candidate at this level is dead: no further
            // progress is possible; we are the (degraded) root.
            res.root = members_[cur];
            res.failed = true;
            return res;
        }
    }
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
    RouteResult r = route(storer, salted);
    for (NodeId n : r.path) {
        if (states_[indexOf(n)].pointers[g].insert(storer).second)
            persistPointer(n, g, storer);
    }
    return static_cast<unsigned>(r.path.size() - 1);
}

unsigned
PlaxtonMesh::publish(const Guid &g, NodeId storer)
{
    unsigned hops = 0;
    for (unsigned s = 0; s < cfg_.numSalts; s++)
        hops += publishOne(g.withSalt(s), g, storer);
    published_[storer].insert(g);
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
        RouteResult r = route(storer, g.withSalt(s));
        for (NodeId n : r.path) {
            auto &ptrs = states_[indexOf(n)].pointers;
            auto it = ptrs.find(g);
            if (it != ptrs.end()) {
                if (it->second.erase(storer) > 0)
                    unpersistPointer(n, g, storer);
                if (it->second.empty())
                    ptrs.erase(it);
            }
        }
    }
    auto it = published_.find(storer);
    if (it != published_.end()) {
        it->second.erase(g);
        if (it->second.empty())
            published_.erase(it);
    }
}

LocateResult
PlaxtonMesh::locateWithSalt(NodeId from, const Guid &g,
                            unsigned salt) const
{
    LocateResult res;
    RouteResult r = route(from, g.withSalt(salt));
    res.saltUsed = salt;

    double lat = 0.0;
    for (std::size_t i = 0; i < r.path.size(); i++) {
        if (i > 0)
            lat += rt_.latency(r.path[i - 1], r.path[i]);
        const NodeState &st = states_[indexOf(r.path[i])];
        auto it = st.pointers.find(g);
        if (it == st.pointers.end())
            continue;
        // Choose the closest alive storer advertised here.
        NodeId best = invalidNode;
        double best_lat = 0.0;
        for (NodeId storer : it->second) {
            if (!alive(storer))
                continue;
            double dl = rt_.latency(r.path[i], storer);
            if (best == invalidNode || dl < best_lat) {
                best = storer;
                best_lat = dl;
            }
        }
        if (best == invalidNode)
            continue;
        res.found = true;
        res.location = best;
        res.hops = static_cast<unsigned>(i);
        res.latency = lat + (best == r.path[i] ? 0.0 : best_lat);
        return res;
    }
    res.latency = lat;
    res.hops = static_cast<unsigned>(
        r.path.empty() ? 0 : r.path.size() - 1);
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
    if (index_.count(n))
        fatal("PlaxtonMesh::insertNode: already a member");
    std::size_t idx = states_.size();
    members_.push_back(n);
    index_[n] = idx;
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
        for (std::size_t lvl = 0; lvl <= max_lvl; lvl++) {
            unsigned d = id.digit(lvl);
            auto &c = other.table[lvl][d].candidates;
            if (std::find(c.begin(), c.end(), self) != c.end())
                continue;
            c.push_back(self);
            std::sort(c.begin(), c.end(), [&](NodeId a, NodeId b) {
                double la = rt_.latency(other_node, a);
                double lb = rt_.latency(other_node, b);
                if (la != lb)
                    return la < lb;
                return a < b;
            });
            if (c.size() > 1 + redundancy)
                c.resize(1 + redundancy);
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
    // are on disk), so its publications stay in published_ — repair()
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
            st.pointers[parsed->first].insert(parsed->second);
            reloaded++;
        });
    }

    // Pointers TO this node's objects were purged from the rest of
    // the mesh while it was down; re-deposit them, in Guid order.
    auto it = published_.find(n);
    if (it != published_.end()) {
        for (const Guid &g : it->second)
            publish(g, n);
    }
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
    for (std::size_t i = 0; i < states_.size(); i++) {
        NodeState &st = states_[i];
        if (!st.alive)
            continue;
        for (auto it = st.pointers.begin(); it != st.pointers.end();) {
            for (auto sit = it->second.begin();
                 sit != it->second.end();) {
                auto pub = published_.find(*sit);
                if (!alive(*sit) || pub == published_.end() ||
                    !pub->second.count(it->first)) {
                    unpersistPointer(members_[i], it->first, *sit);
                    sit = it->second.erase(sit);
                } else {
                    ++sit;
                }
            }
            if (it->second.empty())
                it = st.pointers.erase(it);
            else
                ++it;
        }
    }
    // 3. Every alive storer slowly repeats the publishing process
    //    (Section 4.3.3), restoring pointers on the repaired mesh.
    for (const auto &[storer, objs] : published_) {
        if (!alive(storer))
            continue;
        for (const Guid &g : objs) {
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
        bool suspect = suspects_.count(n) > 0;
        if (answered && suspect) {
            // Second chance paid off: full state retained.
            suspects_.erase(n);
            report.reinstated++;
        } else if (!answered && !suspect) {
            suspects_.insert(n);
            report.suspects++;
        } else if (!answered && suspect) {
            // Two consecutive misses: really gone.
            suspects_.erase(n);
            removeNode(n);
            report.evicted++;
        }
    }
    return report;
}

std::vector<Guid>
PlaxtonMesh::objectsPublishedBy(NodeId storer) const
{
    auto it = published_.find(storer);
    if (it == published_.end())
        return {};
    return std::vector<Guid>(it->second.begin(), it->second.end());
}

} // namespace oceanstore
