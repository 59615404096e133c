/**
 * @file
 * Figure 3 / Section 4.3.3 reproduction: wide-scale distributed data
 * location on the Plaxton-style mesh.
 *
 * Sweep 1 (locality): "the average distance traveled is proportional
 *   to the distance between the source of the query and the closest
 *   replica" — locate latency vs latency-to-closest-replica, with the
 *   stretch ratio per distance bucket.
 * Sweep 2 (scaling): publish/locate hop counts vs network size
 *   (O(log n)).
 * Sweep 3 (A3 ablation): locate success under node failures, single
 *   root vs salted replicated roots, before and after repair.
 * Scale: set-up time, RSS growth per server, lookups per second and
 *   hop p50 of a mesh with published objects at 128 and 1024 servers
 *   (and 4096 outside --smoke): per-server location state should stay
 *   flat as the network grows.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "obs/metrics.h"
#include "plaxton/mesh.h"
#include "runner.h"
#include "runtime/runtime.h"
#include "sim/topology.h"
#include "util/stats.h"

using namespace oceanstore;

namespace {

struct Sink : public SimNode
{
    void handleMessage(const Message &) override {}
};

struct World
{
    World(std::size_t n, unsigned salts, std::uint64_t seed)
        : rng(seed), net(sim, netCfg())
    {
        auto topo = makeGeometricTopology(n, 4, rng);
        sinks.resize(n);
        for (std::size_t i = 0; i < n; i++)
            members.push_back(net.addNode(&sinks[i],
                                          topo.positions[i].first,
                                          topo.positions[i].second));
        PlaxtonConfig cfg;
        cfg.numSalts = salts;
        mesh = std::make_unique<PlaxtonMesh>(rt, members, rng, cfg);
    }

    static NetworkConfig
    netCfg()
    {
        NetworkConfig cfg;
        cfg.jitter = 0.0;
        return cfg;
    }

    Rng rng;
    Simulator sim;
    Network net;
    Runtime rt{sim, net};
    std::vector<Sink> sinks;
    std::vector<NodeId> members;
    std::unique_ptr<PlaxtonMesh> mesh;
};

/**
 * The shared loop: @p trials publish/locate/unpublish round-trips of
 * fresh objects on @p w, each locate from a random member, handed to
 * @p on_locate(publish hops, from, storer, result).  Only the rounds
 * are measured (mesh construction excluded).
 */
template <typename OnLocate>
void
locateRounds(bench::BenchContext &ctx, World &w, int trials,
             OnLocate on_locate)
{
    ctx.beginMeasured();
    std::uint64_t ev0 = w.sim.eventsExecuted();
    for (int t = 0; t < trials; t++) {
        Guid g = Guid::random(w.rng);
        NodeId storer = w.rng.pick(w.members);
        unsigned published = w.mesh->publish(g, storer);
        NodeId from = w.rng.pick(w.members);
        on_locate(published, from, storer, w.mesh->locate(from, g));
        w.mesh->unpublish(g, storer);
    }
    ctx.addEvents(w.sim.eventsExecuted() - ev0);
    ctx.endMeasured();
}

/** Throughput kernel: round-trips on one 256-node mesh. */
void
locateLoop(bench::BenchContext &ctx)
{
    World w(ctx.smoke() ? 64 : 256, 1, ctx.seed(0x9a9a));
    Accumulator hops, lat;
    locateRounds(ctx, w, ctx.smoke() ? 10 : 300,
                 [&](unsigned, NodeId, NodeId, const LocateResult &r) {
                     if (r.found) {
                         hops.add(r.hops);
                         lat.add(r.latency);
                     }
                 });
    ctx.metric("locate_hops", "hops", hops.count() ? hops.mean() : 0);
    ctx.metric("locate_ms", "ms", lat.count() ? lat.mean() * 1e3 : 0);
}

/**
 * Sweep 1 (locality, 512 nodes, 3 salts): locate latency, stretch,
 * query count and hops per bucket of latency to the closest replica.
 * The paper: "the average distance traveled is proportional to the
 * distance between the source of the query and the closest replica"
 * -- stretch settles to a small constant as distance grows.
 */
void
localityTable(bench::BenchContext &ctx)
{
    World w(512, 3, ctx.seed(0x9a9a));
    const std::vector<double> edges = {0.0,  0.02, 0.04, 0.06,
                                       0.09, 0.12, 0.20};
    const std::size_t buckets = edges.size() - 1;
    std::vector<Accumulator> locate_lat(buckets), stretch(buckets),
        hops(buckets);
    locateRounds(ctx, w, 1500,
                 [&](unsigned, NodeId from, NodeId storer,
                     const LocateResult &r) {
                     double optimal = w.net.latency(from, storer);
                     if (!r.found || optimal <= 1e-9)
                         return;
                     for (std::size_t b = 0; b < buckets; b++) {
                         if (optimal >= edges[b] &&
                             optimal < edges[b + 1]) {
                             locate_lat[b].add(r.latency);
                             stretch[b].add(r.latency / optimal);
                             hops[b].add(r.hops);
                         }
                     }
                 });
    for (std::size_t b = 0; b < buckets; b++) {
        if (locate_lat[b].count() == 0)
            continue;
        std::string k =
            "_" + std::to_string(std::lround(edges[b] * 1e3)) + "_" +
            std::to_string(std::lround(edges[b + 1] * 1e3)) + "ms";
        ctx.metric("locate_ms" + k, "ms", locate_lat[b].mean() * 1e3);
        ctx.metric("stretch" + k, "x", stretch[b].mean());
        ctx.metric("queries" + k, "count",
                   static_cast<double>(locate_lat[b].count()));
        ctx.metric("hops" + k, "hops", hops[b].mean());
    }
}

/** Sweep 2 (scaling): publish hops per salt and locate hops vs
 *  network size, expected O(log16 n). */
void
scalingTable(bench::BenchContext &ctx)
{
    for (std::size_t n : {64u, 128u, 256u, 512u, 1024u}) {
        World w(n, 1, ctx.seed(0x5ca1e) + n);
        Accumulator pub, loc;
        locateRounds(ctx, w, 150,
                     [&](unsigned published, NodeId, NodeId,
                         const LocateResult &r) {
                         pub.add(published);
                         if (r.found)
                             loc.add(r.hops);
                     });
        std::string k = "_n" + std::to_string(n);
        ctx.metric("publish_hops" + k, "hops", pub.mean());
        ctx.metric("locate_hops" + k, "hops", loc.mean());
    }
}

/**
 * Sweep 3 (A3 ablation, 256 nodes, 60 objects): locate success under
 * failures of non-storer nodes, one root vs 3 salted roots, and 3
 * salted roots after repair.  Salted replicated roots remove the
 * single point of failure; repair restores locate success.
 */
void
faultTable(bench::BenchContext &ctx)
{
    for (int pct : {10, 20, 30, 40, 50}) {
        for (auto [salts, repaired, name] :
             {std::tuple{1u, false, "1root"},
              std::tuple{3u, false, "3salted"},
              std::tuple{3u, true, "3salted_repair"}}) {
            World w(256, salts, ctx.seed(0xdead) + salts);
            std::vector<Guid> objs;
            std::vector<NodeId> storers;
            for (int i = 0; i < 60; i++) {
                Guid g = Guid::random(w.rng);
                NodeId s = w.rng.pick(w.members);
                w.mesh->publish(g, s);
                objs.push_back(g);
                storers.push_back(s);
            }
            // Kill a fraction of non-storer nodes.
            auto to_kill =
                static_cast<unsigned>(pct / 100.0 * w.members.size());
            unsigned killed = 0;
            for (NodeId nid : w.members) {
                if (killed >= to_kill)
                    break;
                if (std::find(storers.begin(), storers.end(), nid) !=
                    storers.end())
                    continue;
                w.net.setDown(nid);
                w.mesh->removeNode(nid);
                killed++;
            }
            if (repaired)
                w.mesh->repair();

            unsigned found = 0, total = 0;
            for (const Guid &g : objs) {
                for (int q = 0; q < 3; q++) {
                    NodeId from = w.rng.pick(w.members);
                    if (!w.mesh->alive(from))
                        continue;
                    total++;
                    found += w.mesh->locate(from, g).found;
                }
            }
            ctx.metric("ok_pct_killed" + std::to_string(pct) + "_" +
                           name,
                       "%", total ? 100.0 * found / total : 0.0);
        }
    }
}

/** Resident set size of this process in MiB (0 where unreadable). */
double
rssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmRSS:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    }
    return 0.0;
}

/** Give freed heap back to the OS, so the next RSS reading counts
 *  only what is live. */
void
trimHeap()
{
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
}

/**
 * Scale (ROADMAP item 10): a 3-salt mesh of n servers, 4 objects per
 * server each published by 2 storers, then lookups from random
 * members.  Set-up (mesh construction plus publishes) is timed and
 * its RSS growth divided by n; hop sums are exact counters
 * (plaxton_scale.*), so a change that moves a route shows there.
 */
void
scaleCase(bench::BenchContext &ctx)
{
    std::vector<std::size_t> sizes = {128, 1024};
    if (!ctx.smoke())
        sizes.push_back(4096);
    MetricsRegistry &reg = MetricsRegistry::global();
    for (std::size_t n : sizes) {
        const std::string k = "_n" + std::to_string(n);
        const auto lookupHops = reg.counter("plaxton_scale.lookup_hops" + k);
        const auto publishHops =
            reg.counter("plaxton_scale.publish_hops" + k);
        trimHeap();
        const double rss0 = rssMb();
        const auto t0 = std::chrono::steady_clock::now();
        auto w = std::make_unique<World>(n, 3, ctx.seed(0x5ca1ab1e) + n);
        std::vector<Guid> objs(4 * n);
        for (Guid &g : objs) {
            g = Guid::random(w->rng);
            for (int r = 0; r < 2; r++)
                reg.inc(publishHops,
                        w->mesh->publish(g, w->rng.pick(w->members)));
        }
        const double setup = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
        const double rss1 = rssMb();

        const int lookups = ctx.smoke() ? 2000 : 20000;
        std::vector<double> hops;
        hops.reserve(lookups);
        unsigned found = 0;
        const auto t1 = std::chrono::steady_clock::now();
        for (int i = 0; i < lookups; i++) {
            const Guid &g = objs[w->rng.next() % objs.size()];
            LocateResult r = w->mesh->locate(w->rng.pick(w->members), g);
            found += r.found;
            hops.push_back(r.hops);
            reg.inc(lookupHops, r.hops);
        }
        const double lookup_s = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - t1)
                                    .count();
        std::sort(hops.begin(), hops.end());

        ctx.metric("setup_s" + k, "s", setup);
        ctx.metric("rss_kb_per_server" + k, "kB",
                   (rss1 - rss0) * 1024.0 / static_cast<double>(n));
        ctx.metric("lookups_per_s" + k, "1/s",
                   lookup_s > 0 ? lookups / lookup_s : 0.0);
        ctx.metric("hops_p50" + k, "hops", hops[hops.size() / 2]);
        ctx.metric("found_frac" + k, "frac",
                   static_cast<double>(found) / lookups);
        w.reset();
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<bench::BenchCase> cases{
        {"locate", locateLoop},
        {"locality_table", localityTable},
        {"scaling_table", scalingTable},
        {"fault_table", faultTable},
        {"scale", scaleCase}};
    return bench::runBenchMain(argc, argv, "bench_plaxton_locality",
                               cases);
}
