/**
 * @file
 * Section 5 reproduction: extra fragment requests under drops.
 *
 * "Although only one half of the fragments were required to
 * reconstruct the object, we found that issuing requests for extra
 * fragments proved beneficial due to dropped requests."
 *
 * Sweep the request over-factor (requests issued = overfactor * k)
 * against request drop rates; report mean reconstruction latency and
 * success without escalation.  The expected shape: with no drops, the
 * over-factor only wastes bandwidth; with drops, over-factors > 1
 * dodge the retry timeout and cut latency sharply, with diminishing
 * returns past ~2x.
 */

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "archive/archival.h"
#include "erasure/reed_solomon.h"
#include "runner.h"
#include "runtime/runtime.h"
#include "sim/fault.h"
#include "util/stats.h"

using namespace oceanstore;

namespace {

struct Run
{
    double meanLatency = 0.0;
    double p95Latency = 0.0;
    double successRate = 0.0;
    double meanRequests = 0.0;
    double meanBytes = 0.0;
};

/** @p trials reconstructions of a fresh 32 kB dispersal each; only
 *  the reconstruction (not dispersal/setup) is measured. */
Run
measure(bench::BenchContext &ctx, double overfactor, double drop_rate,
        int trials)
{
    Run out;
    Accumulator lat, reqs, bytes;
    int ok = 0;

    for (int t = 0; t < trials; t++) {
        Simulator sim;
        NetworkConfig ncfg;
        ncfg.jitter = 0.05;
        std::uint64_t base = ctx.seed(0xf00d);
        ncfg.seed = base + t;
        Network net(sim, ncfg);

        Rng rng(base - 0xf00d + 0x5eed + t);
        std::vector<std::pair<double, double>> pos;
        std::vector<unsigned> domains;
        for (int i = 0; i < 48; i++) {
            pos.emplace_back(rng.uniform(), rng.uniform());
            domains.push_back(i % 4);
        }
        ArchiveConfig acfg;
        acfg.requestOverfactor = overfactor;
        acfg.retryTimeout = 4.0;
        acfg.failTimeout = 30.0;
        Runtime rt(sim, net);
        ArchivalSystem sys(rt, pos, domains, acfg);
        std::vector<std::unique_ptr<NodeStorage>> disks;
        for (std::size_t i = 0; i < sys.size(); i++) {
            disks.push_back(std::make_unique<NodeStorage>(StorageSetup{}));
            sys.server(i).attachStorage(disks.back().get());
        }
        auto client = sys.makeClient(0.5, 0.5);

        ReedSolomonCode codec(16, 32);
        Bytes data(32 << 10);
        for (auto &x : data)
            x = static_cast<std::uint8_t>(rng.next());
        Guid archive = sys.disperse(codec, data, 0);
        sim.runUntil(10.0);

        // Drops apply only to the reconstruction traffic: dispersal
        // must succeed.
        FaultInjector faults(
            sim, net,
            FaultPlan{.drop = drop_rate,
                      .seed = mixSeed64(ncfg.seed, 0xfa017)});
        faults.arm();
        net.resetCounters();
        std::optional<ReconstructResult> res;
        ctx.beginMeasured();
        std::uint64_t ev0 = sim.eventsExecuted();
        sys.reconstruct(*client, archive,
                        [&](const ReconstructResult &r) { res = r; });
        sim.runUntil(sim.now() + 60.0);
        ctx.addEvents(sim.eventsExecuted() - ev0);
        ctx.endMeasured();

        if (res && res->success) {
            ok++;
            lat.add(res->latency);
            reqs.add(res->fragmentsRequested);
            bytes.add(static_cast<double>(net.totalBytes()));
        }
    }
    out.successRate = 100.0 * ok / trials;
    out.meanLatency = lat.count() ? lat.mean() : -1;
    out.p95Latency = lat.count() ? lat.percentile(95) : -1;
    out.meanRequests = reqs.count() ? reqs.mean() : 0;
    out.meanBytes = bytes.count() ? bytes.mean() : 0;
    return out;
}

/** Throughput kernel: reconstruction under 10% drops with a 1.5x
 *  over-factor; dispersal/setup excluded per trial. */
void
reconstructLoop(bench::BenchContext &ctx)
{
    Run r = measure(ctx, 1.5, 0.1, ctx.smoke() ? 1 : 8);
    ctx.metric("reconstruct_ms", "ms",
               r.meanLatency >= 0 ? r.meanLatency * 1e3 : -1);
    ctx.metric("success_pct", "%", r.successRate);
}

/**
 * The Section 5 table: mean/p95 reconstruction latency and success
 * per request over-factor and drop rate (15 trials a cell), then the
 * bandwidth cost of over-requesting without drops (5 trials).  The
 * over=1.0 column pays the retry timeout as soon as any request
 * drops; extra requests "proved beneficial due to dropped requests".
 */
void
overfactorTable(bench::BenchContext &ctx)
{
    const double overfactors[] = {1.0, 1.25, 1.5, 2.0};
    for (int drop_pct : {0, 10, 20, 30, 40}) {
        for (double of : overfactors) {
            Run r = measure(ctx, of, drop_pct / 100.0, 15);
            std::string k = "_drop" + std::to_string(drop_pct) + "_over" +
                            std::to_string(static_cast<int>(of * 100));
            ctx.metric("mean_ms" + k, "ms",
                       r.meanLatency < 0 ? -1 : r.meanLatency * 1e3);
            ctx.metric("p95_ms" + k, "ms",
                       r.p95Latency < 0 ? -1 : r.p95Latency * 1e3);
            ctx.metric("ok_pct" + k, "%", r.successRate);
        }
    }
    for (double of : overfactors) {
        Run r = measure(ctx, of, 0.0, 5);
        std::string k =
            "_over" + std::to_string(static_cast<int>(of * 100));
        ctx.metric("requests" + k, "requests", r.meanRequests);
        ctx.metric("kb_per_reconstruct" + k, "kB", r.meanBytes / 1024.0);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<bench::BenchCase> cases{
        {"reconstruct", reconstructLoop},
        {"overfactor_table", overfactorTable}};
    return bench::runBenchMain(argc, argv, "bench_fragment_requests",
                               cases);
}
