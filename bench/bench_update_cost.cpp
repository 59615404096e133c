/**
 * @file
 * Figure 6 reproduction: the cost of an update in bytes sent across
 * the network, normalized to the minimum (u*n) needed to send the
 * update to each of the n primary-tier replicas.
 *
 * Two series per tier size (m=2/n=7, m=3/n=10, m=4/n=13):
 *   - "model":    the paper's equation b = c1*n^2 + (u + c2)*n + c3;
 *   - "measured": bytes actually counted on the simulated network
 *                 while the PBFT-style agreement commits one update
 *                 of the given size.
 *
 * Paper shape checks are claim_* metrics: larger tiers strictly
 * costlier at small updates; all curves converging toward 1.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "consistency/byzantine.h"
#include "consistency/cost_model.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "runner.h"
#include "runtime/runtime.h"
#include "util/stats.h"

using namespace oceanstore;

namespace {

/**
 * A PBFT cluster of n = 3m+1 replicas on a small ring near the center
 * with one client, on a jitter-free network.
 *
 * With @p traced false the tracer and profiler stay detached, so the
 * observability hooks in the simulator and network cost one null
 * check each — "pbft_commit" is the tracing-detached overhead guard
 * (mirroring "tree_push_fault_hooks_off" for the fault layer): its
 * numbers must not regress against the pre-tracing baseline beyond
 * noise.  "pbft_commit_traced" runs the same kernel with a live
 * Tracer and PhaseProfiler to quantify the attached cost.
 */
struct PbftBench
{
    PbftBench(unsigned m, std::uint64_t seed, bool traced)
        : net(sim, netConfig(seed))
    {
        if (traced) {
            ts = std::make_unique<TraceScope>(tracer);
            ps = std::make_unique<ProfileScope>(profiler);
        }
        unsigned n = 3 * m + 1;
        std::vector<std::pair<double, double>> pos;
        for (unsigned r = 0; r < n; r++) {
            double angle = 6.2831853 * r / n;
            pos.emplace_back(0.5 + 0.05 * std::cos(angle),
                             0.5 + 0.05 * std::sin(angle));
        }
        PbftConfig cfg;
        cfg.m = m;
        // Large updates take seconds at the modeled bandwidth: the
        // client must not re-broadcast while the body is in flight.
        cfg.clientRetry.firstDelay = 120.0;
        cfg.clientRetry.maxDelay = 120.0;
        cluster = std::make_unique<PbftCluster>(rt, pos, registry, cfg);
        cluster->executor = [](unsigned, const Bytes &, std::uint64_t) {
            return Bytes{1};
        };
        client = cluster->makeClient(0.45, 0.45, 1);
    }

    static NetworkConfig
    netConfig(std::uint64_t seed)
    {
        NetworkConfig ncfg;
        ncfg.jitter = 0.0;
        ncfg.seed = seed;
        return ncfg;
    }

    /** Commit one @p bytes-byte update, stepping the sim until the
     *  client hears back (300 s at most).  @return whether it did;
     *  the network counters then hold its bytes. */
    bool
    commit(std::size_t bytes)
    {
        net.resetCounters();
        done = false;
        client->submit(Bytes(bytes, 0x55),
                       [this](const PbftOutcome &) { done = true; });
        double deadline = sim.now() + 300.0;
        while (!done && sim.now() < deadline)
            sim.runUntil(sim.now() + 0.1);
        return done;
    }

    Tracer tracer;
    PhaseProfiler profiler;
    std::unique_ptr<TraceScope> ts;
    std::unique_ptr<ProfileScope> ps;
    Simulator sim;
    Network net;
    KeyRegistry registry;
    Runtime rt{sim, net};
    std::unique_ptr<PbftCluster> cluster;
    std::unique_ptr<PbftClient> client;
    bool done = false;
};

/** Throughput kernel: commit a run of 4 kB PBFT updates through one
 *  m=2 cluster; cluster construction/keygen excluded. */
void
commitLoop(bench::BenchContext &ctx, bool traced)
{
    PbftBench b(2, ctx.seed(NetworkConfig{}.seed), traced);
    const int updates = ctx.smoke() ? 2 : 24;
    Accumulator bytes;
    ctx.beginMeasured();
    std::uint64_t ev0 = b.sim.eventsExecuted();
    for (int i = 0; i < updates; i++) {
        if (b.commit(4 << 10))
            bytes.add(static_cast<double>(b.net.totalBytes()));
    }
    ctx.addEvents(b.sim.eventsExecuted() - ev0);
    ctx.endMeasured();

    ctx.metric("bytes_per_commit", "B",
               bytes.count() ? bytes.mean() : -1);
    if (traced)
        ctx.metric("spans", "count",
                   static_cast<double>(b.tracer.buffer().size()));
}

/**
 * The Figure 6 table: normalized update cost b / (u*n) vs update size
 * u for three tier sizes, the paper's model b = c1*n^2 + (u + c2)*n +
 * c3 (c1 is ~100 B per message across the agreement's all-to-all
 * phases) next to the bytes the simulated network counted while one
 * update committed (and the cluster ran on to t = 300 s).  Section
 * 4.4.5's shape: ~2 at 4 kB and ~1 by 100 kB for (m=4, n=13), larger
 * tiers costlier at small updates, every curve converging on 1.
 */
void
figure6Table(bench::BenchContext &ctx)
{
    const std::size_t sizes[] = {
        100,        400,        1 << 10,    4 << 10,   16 << 10,
        64 << 10,   256 << 10,  1 << 20,    4 << 20,   10 << 20};
    UpdateCostModel model;
    std::vector<double> at100, at10m;
    for (unsigned m : {2u, 3u, 4u}) {
        unsigned n = 3 * m + 1;
        for (std::size_t u : sizes) {
            PbftBench b(m, ctx.seed(NetworkConfig{}.seed), false);
            bool done = b.commit(u);
            b.sim.runUntil(300.0);
            double bytes = done ? b.net.totalBytes() : -1.0;
            double norm = bytes / (static_cast<double>(u) * n);
            std::string k = "_m" + std::to_string(m) + "_" +
                            std::to_string(u) + "b";
            ctx.metric("model" + k, "x", model.normalizedCost(u, n));
            ctx.metric("measured" + k, "x", norm);
            if (u == sizes[0])
                at100.push_back(norm);
            if (u == sizes[9])
                at10m.push_back(norm);
        }
    }
    ctx.metric("model_m4_100kb", "x", model.normalizedCost(100 << 10, 13));
    ctx.metric("claim_larger_tiers_costlier_at_100b", "bool",
               at100[0] < at100[1] && at100[1] < at100[2]);
    ctx.metric("claim_all_approach_1_at_10mb", "bool",
               std::all_of(at10m.begin(), at10m.end(),
                           [](double c) { return c < 1.6; }));
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<bench::BenchCase> cases{
        {"pbft_commit",
         [](bench::BenchContext &ctx) { commitLoop(ctx, false); }},
        {"pbft_commit_traced",
         [](bench::BenchContext &ctx) { commitLoop(ctx, true); }},
        {"figure6_table", figure6Table},
    };
    return bench::runBenchMain(argc, argv, "bench_update_cost", cases);
}
