/**
 * @file
 * Figure 2 / Section 5 reproduction: the probabilistic query process.
 *
 * "A prototype for the probabilistic data location component has been
 * implemented and verified.  Simulation results show that our
 * algorithm finds nearby objects with near-optimal efficiency."
 *
 * Sweep 1: success rate and hop count vs true object distance, for
 *          several attenuation depths D (the filter horizon).
 * Sweep 2: routing stretch (hops taken / optimal hops) for objects
 *          inside the horizon — the near-optimal-efficiency claim.
 * Sweep 3: per-node storage cost vs depth (constant in object count).
 */

#include <string>
#include <vector>

#include "bloom/location_service.h"
#include "runner.h"
#include "sim/topology.h"
#include "util/stats.h"

using namespace oceanstore;

/** The three Figure 2 sweeps over one 256-node topology, sharing one
 *  Rng in sweep order. */
static void
locationTable(bench::BenchContext &ctx)
{
    Rng rng(ctx.seed(0xb100f));
    const std::size_t n = 256;
    auto topo = makeGeometricTopology(n, 4, rng);
    auto config = [](unsigned depth) {
        BloomLocationConfig cfg;
        cfg.depth = depth;
        cfg.bits = 4096;
        cfg.ttl = 16;
        return cfg;
    };

    // Sweep 1: success rate and mean hops vs object distance, per
    // attenuation depth D (the filter horizon).
    const unsigned max_dist = 6;
    for (unsigned depth : {2u, 3u, 4u, 5u}) {
        BloomLocationService svc(topo, config(depth));
        std::vector<Accumulator> hops(max_dist + 1);
        std::vector<unsigned> tried(max_dist + 1, 0);
        std::vector<unsigned> found(max_dist + 1, 0);
        for (int trial = 0; trial < 400; trial++) {
            Guid g = Guid::random(rng);
            NodeId holder = static_cast<NodeId>(rng.below(n));
            svc.addObject(holder, g);
            auto dist = topo.hopDistances(holder);
            NodeId from = static_cast<NodeId>(rng.below(n));
            unsigned d = static_cast<unsigned>(dist[from]);
            if (d <= max_dist) {
                auto res = svc.query(from, g);
                tried[d]++;
                if (res.found) {
                    found[d]++;
                    hops[d].add(res.hops);
                }
            }
            svc.removeObject(holder, g);
        }
        for (unsigned d = 0; d <= max_dist; d++) {
            if (tried[d] == 0)
                continue;
            std::string k = "_D" + std::to_string(depth) + "_dist" +
                            std::to_string(d);
            ctx.metric("hit_pct" + k, "%", 100.0 * found[d] / tried[d]);
            ctx.metric("hops" + k, "hops",
                       hops[d].count() ? hops[d].mean() : 0.0);
        }
    }

    // Sweep 2: routing stretch for objects within the D=4 horizon
    // ("finds nearby objects with near-optimal efficiency").
    {
        BloomLocationService svc(topo, config(4));
        Accumulator stretch;
        unsigned exact = 0, total = 0;
        for (int trial = 0; trial < 600; trial++) {
            Guid g = Guid::random(rng);
            NodeId holder = static_cast<NodeId>(rng.below(n));
            svc.addObject(holder, g);
            auto dist = topo.hopDistances(holder);
            NodeId from = static_cast<NodeId>(rng.below(n));
            int d = dist[from];
            if (d >= 1 && d <= 4) {
                auto res = svc.query(from, g);
                if (res.found) {
                    total++;
                    stretch.add(static_cast<double>(res.hops) / d);
                    if (res.hops == static_cast<unsigned>(d))
                        exact++;
                }
            }
            svc.removeObject(holder, g);
        }
        ctx.metric("stretch_mean", "x", stretch.mean());
        ctx.metric("stretch_p95", "x", stretch.percentile(95));
        ctx.metric("optimal_path_pct", "%", 100.0 * exact / total);
    }

    // Sweep 3: per-node filter storage, constant per node (Section
    // 4.3.2).
    for (unsigned depth : {2u, 3u, 4u, 5u}) {
        BloomLocationService svc(topo, config(depth));
        Accumulator storage;
        for (NodeId i = 0; i < n; i++)
            storage.add(static_cast<double>(svc.storagePerNode(i)));
        ctx.metric("storage_kb_D" + std::to_string(depth), "kB",
                   storage.mean() / 1024.0);
    }
}

/** Throughput kernel: add/query/remove cycles against one D=4
 *  service; topology and filter construction excluded. */
static void
queryLoop(bench::BenchContext &ctx)
{
    Rng rng(ctx.seed(0xb100f));
    const std::size_t n = ctx.smoke() ? 64 : 256;
    auto topo = makeGeometricTopology(n, 4, rng);
    BloomLocationConfig cfg;
    cfg.depth = 4;
    cfg.bits = 4096;
    cfg.ttl = 16;
    BloomLocationService svc(topo, cfg);

    const int trials = ctx.smoke() ? 20 : 400;
    unsigned found = 0;
    Accumulator hops;
    ctx.beginMeasured();
    for (int t = 0; t < trials; t++) {
        Guid g = Guid::random(rng);
        NodeId holder = static_cast<NodeId>(rng.below(n));
        svc.addObject(holder, g);
        auto res = svc.query(static_cast<NodeId>(rng.below(n)), g);
        if (res.found) {
            found++;
            hops.add(res.hops);
        }
        svc.removeObject(holder, g);
    }
    ctx.endMeasured();

    ctx.metric("hit_pct", "%", 100.0 * found / trials);
    ctx.metric("mean_hops", "hops", hops.count() ? hops.mean() : 0);
}

int
main(int argc, char **argv)
{
    std::vector<bench::BenchCase> cases{
        {"query", queryLoop}, {"location_table", locationTable}};
    return bench::runBenchMain(argc, argv, "bench_bloom_location",
                               cases);
}
