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
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "plaxton/mesh.h"
#include "runner.h"
#include "runtime/sim_runtime.h"
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
    SimRuntime rt{sim, net};
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

} // namespace

int
main(int argc, char **argv)
{
    std::vector<bench::BenchCase> cases{
        {"locate", locateLoop},
        {"locality_table", localityTable},
        {"scaling_table", scalingTable},
        {"fault_table", faultTable}};
    return bench::runBenchMain(argc, argv, "bench_plaxton_locality",
                               cases);
}
