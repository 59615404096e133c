#include "bloom/location_service.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/logging.h"

namespace oceanstore {

namespace {

/** Probes per element. */
constexpr unsigned numHashes = 4;

/** Interned metric ids, registered once on first use. */
struct BloomMetricIds
{
    MetricsRegistry *reg;
    MetricsRegistry::Id queries, hits, fallbacks;
    MetricsRegistry::Id queryHops; //!< histogram

    BloomMetricIds()
        : reg(&MetricsRegistry::global()),
          queries(reg->counter("bloom.queries")),
          hits(reg->counter("bloom.hits")),
          fallbacks(reg->counter("bloom.fallbacks")),
          queryHops(reg->histogram("bloom.query_hops", 0.0, 16.0, 16))
    {
    }
};

BloomMetricIds &
bloomMetrics()
{
    static BloomMetricIds ids;
    return ids;
}

} // namespace

BloomLocationService::BloomLocationService(const Topology &topo,
                                           BloomLocationConfig cfg)
    : topo_(topo), cfg_(cfg)
{
    std::size_t n = topo.size();
    localSets_.resize(n);
    localFilters_.assign(n, BloomFilter(cfg.bits, numHashes));
    edgeFilters_.resize(n);
    penalties_.resize(n);
    edgeBase_.resize(n + 1, 0);
    for (NodeId i = 0; i < n; i++) {
        edgeBase_[i + 1] = edgeBase_[i] + topo.adjacency[i].size();
        edgeFilters_[i].assign(
            topo.adjacency[i].size(),
            AttenuatedBloomFilter(cfg.depth, cfg.bits, numHashes));
        penalties_[i].assign(topo.adjacency[i].size(), 0);
    }
}

unsigned
BloomLocationService::edgeIndex(NodeId from, NodeId to) const
{
    const auto &adj = topo_.adjacency[from];
    auto it = std::lower_bound(adj.begin(), adj.end(), to);
    if (it == adj.end() || *it != to)
        fatal("BloomLocationService: no such edge");
    return static_cast<unsigned>(it - adj.begin());
}

void
BloomLocationService::addObject(NodeId n, const Guid &g)
{
    std::vector<Guid> &set = localSets_[n];
    auto at = std::lower_bound(set.begin(), set.end(), g);
    if (at == set.end() || *at != g)
        set.insert(at, g);
    localFilters_[n].insert(g);
    if (dirty_) {
        return; // a full rebuild is pending anyway
    }
    propagateInsert(n, g);
}

void
BloomLocationService::propagateInsert(NodeId n, const Guid &g)
{
    // Mirror the rebuild recursion for a single GUID:
    //   A_an[level 0] gains g for every a adjacent to n;
    //   if A_bc[l-1] gained g, A_ab[l] gains g for a in adj(b), a != c.
    // Each (edge, level) state is visited once; every touched edge
    // ships a small delta to the edge's tail (gossip accounting).
    const std::size_t delta_bytes = numHashes * 4 + 16;

    // visited[level * edges + edge number]: (edge, level) handled.
    const std::size_t edges = edgeBase_.back();
    std::vector<bool> visited(cfg_.depth * edges, false);
    // Frontier holds (tail a, head b) pairs whose filter at `level`
    // just gained g.
    std::vector<std::pair<NodeId, NodeId>> frontier;

    for (NodeId a : topo_.adjacency[n]) {
        unsigned j = edgeIndex(a, n);
        edgeFilters_[a][j].level(0).insert(g);
        gossipBytes_ += delta_bytes;
        visited[edgeBase_[a] + j] = true;
        frontier.emplace_back(a, n);
    }

    for (unsigned lvl = 1; lvl < cfg_.depth; lvl++) {
        std::vector<std::pair<NodeId, NodeId>> next;
        for (const auto &[b, c] : frontier) {
            // A_bc[lvl-1] gained g; feed every edge a->b with a != c.
            for (NodeId a : topo_.adjacency[b]) {
                if (a == c)
                    continue; // immediate reverse edge excluded
                unsigned j = edgeIndex(a, b);
                std::size_t v = lvl * edges + edgeBase_[a] + j;
                if (visited[v])
                    continue;
                visited[v] = true;
                edgeFilters_[a][j].level(lvl).insert(g);
                gossipBytes_ += delta_bytes;
                next.emplace_back(a, b);
            }
        }
        frontier = std::move(next);
    }
}

void
BloomLocationService::removeObject(NodeId n, const Guid &g)
{
    std::vector<Guid> &set = localSets_[n];
    auto at = std::lower_bound(set.begin(), set.end(), g);
    if (at != set.end() && *at == g)
        set.erase(at);
    // Bloom filters cannot delete bits; rebuild the local filter from
    // the authoritative set.
    localFilters_[n].clear();
    for (const auto &o : localSets_[n])
        localFilters_[n].insert(o);
    dirty_ = true;
}

bool
BloomLocationService::hasObject(NodeId n, const Guid &g) const
{
    const std::vector<Guid> &set = localSets_[n];
    return std::binary_search(set.begin(), set.end(), g);
}

void
BloomLocationService::rebuildFilters()
{
    // Level-by-level propagation of the recursive definition:
    //   A_nb[1] = local(b)
    //   A_nb[i] = U_{c in adj(b), c != n} A_bc[i-1]
    // Each level costs one gossip round: every node ships the newly
    // computed level of each edge filter to the edge's tail.
    for (NodeId n = 0; n < topo_.size(); n++) {
        const auto &adj = topo_.adjacency[n];
        for (std::size_t j = 0; j < adj.size(); j++) {
            edgeFilters_[n][j].clear();
            edgeFilters_[n][j].level(0).merge(localFilters_[adj[j]]);
        }
    }
    for (unsigned lvl = 1; lvl < cfg_.depth; lvl++) {
        for (NodeId n = 0; n < topo_.size(); n++) {
            const auto &adj = topo_.adjacency[n];
            for (std::size_t j = 0; j < adj.size(); j++) {
                NodeId b = adj[j];
                const auto &badj = topo_.adjacency[b];
                for (std::size_t k = 0; k < badj.size(); k++) {
                    if (badj[k] == n)
                        continue; // skip the immediate reverse edge
                    edgeFilters_[n][j].level(lvl).merge(
                        edgeFilters_[b][k].level(lvl - 1));
                }
            }
        }
    }
    // Gossip accounting: each directed edge carries its full
    // attenuated filter once per rebuild.
    for (NodeId n = 0; n < topo_.size(); n++) {
        for (const auto &f : edgeFilters_[n])
            gossipBytes_ += f.wireSize();
    }
    dirty_ = false;
}

BloomQueryResult
BloomLocationService::query(NodeId from, const Guid &g)
{
    if (dirty_)
        rebuildFilters();

    BloomMetricIds &bm = bloomMetrics();
    bm.reg->inc(bm.queries);
    BloomQueryResult res;
    res.path.push_back(from);

    // res.path is the visited set: at most ttl + 1 nodes, so a
    // linear scan beats any hashed set.
    NodeId cur = from;

    for (;;) {
        if (hasObject(cur, g)) {
            res.found = true;
            res.location = cur;
            bm.reg->inc(bm.hits);
            bm.reg->observe(bm.queryHops,
                            static_cast<double>(res.hops));
            return res;
        }
        if (res.hops >= cfg_.ttl)
            break;

        // Pick the outgoing edge advertising g at the smallest
        // (penalty-adjusted) distance; deterministic tie-break on the
        // neighbor id.  Never revisit a node.
        const auto &adj = topo_.adjacency[cur];
        unsigned best_dist = ~0u;
        NodeId best = invalidNode;
        for (std::size_t j = 0; j < adj.size(); j++) {
            if (std::find(res.path.begin(), res.path.end(), adj[j]) !=
                res.path.end())
                continue;
            unsigned d = edgeFilters_[cur][j].minDistance(g);
            if (d == 0)
                continue;
            d += penalties_[cur][j];
            // Reliability factor (Section 4.3.2): a link downgraded
            // past the attenuation horizon advertises nothing
            // credible — treat it as matchless rather than chase a
            // hopeless hop, so heavy loss degrades the query to the
            // global-tier fallback instead of a wandering TTL burn.
            if (d > cfg_.depth)
                continue;
            if (d < best_dist || (d == best_dist && adj[j] < best)) {
                best_dist = d;
                best = adj[j];
            }
        }
        if (best == invalidNode)
            break;

        cur = best;
        res.hops++;
        res.path.push_back(cur);
    }

    res.fellBack = true;
    bm.reg->inc(bm.fallbacks);
    return res;
}

void
BloomLocationService::penalize(NodeId from, NodeId to, unsigned amount)
{
    penalties_[from][edgeIndex(from, to)] += amount;
}

std::size_t
BloomLocationService::storagePerNode(NodeId n) const
{
    std::size_t bytes = localFilters_[n].wireSize();
    for (const auto &f : edgeFilters_[n])
        bytes += f.wireSize();
    return bytes;
}

const AttenuatedBloomFilter &
BloomLocationService::edgeFilter(NodeId from, NodeId to) const
{
    return edgeFilters_[from][edgeIndex(from, to)];
}

} // namespace oceanstore
