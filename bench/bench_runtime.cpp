/**
 * @file
 * Runtime backend comparison: deterministic sim vs real threads.
 *
 * The same serve workload oscluster runs — per-client objects, signed
 * appends through the Byzantine primary tier, byte-verified reads
 * through the two-tier locator — driven against both Runtime backends
 * (DESIGN.md section 15):
 *
 *   sim_serve       SimRuntime, sequential clients, virtual time
 *   threaded_serve  ThreadedRuntime, genuinely concurrent client
 *                   threads against the wall-clock event loop (only
 *                   registered in an OCEANSTORE_THREADED build)
 *   threaded_serve_traced
 *                   threaded_serve with a Tracer + FlightRecorder
 *                   attached for the whole run — measures the
 *                   observability tax on the serve path (DESIGN.md
 *                   section 16 budgets it at < 5% on write p50;
 *                   detached tracing costs one null check and is
 *                   what plain threaded_serve already pays)
 *
 * All latencies are *wall-clock* milliseconds on both backends, so
 * the two cases are directly comparable: the sim number is the cost
 * of computing the protocol, the threaded number adds the modeled
 * loopback latency, real queueing and cross-thread handoff.
 * Throughput is committed writes per wall second over the measured
 * region.
 */

#include <cstdio>
#include <string>
#include <vector>

#include <chrono>

#ifdef OCEANSTORE_THREADED
#include <thread>
#endif

#include <memory>

#include "core/universe.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "runner.h"

using namespace oceanstore;

namespace {

/** Wall-clock seconds since an arbitrary epoch. */
double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct ClientRun
{
    std::vector<double> writeWall; //!< per-write wall latency, seconds
    std::vector<double> readWall;  //!< per verified-read wall latency
    unsigned committed = 0;
    unsigned verified = 0;
};

/** One client's serve loop: write, then read back until the committed
 *  version is visible and the decrypted bytes match.  A read served by
 *  a holder the tree push has not reached yet waits (runUntil) for
 *  that holder's committed version, never for a fixed sleep. */
ClientRun
serveClient(Universe &universe, const ObjectHandle &doc, unsigned id,
            unsigned writes)
{
    ClientRun run;
    std::string expected;
    for (unsigned w = 0; w < writes; w++) {
        std::string text =
            "c" + std::to_string(id) + "w" + std::to_string(w);
        double t0 = wallNow();
        WriteResult wr = universe.writeSync(doc.makeAppendUpdate(
            toBytes(text), /*expected_version=*/w, Timestamp{w + 1, id}));
        run.writeWall.push_back(wallNow() - t0);
        if (!wr.committed)
            continue;
        run.committed++;
        expected += text;

        double r0 = wallNow();
        std::size_t from = (id * 7 + w) % universe.numServers();
        ReadResult rr = universe.readSync(from, doc.guid());
        for (int attempt = 0;
             attempt < 8 && rr.found && rr.version < wr.version;
             attempt++) {
            SecondaryReplica &holder =
                universe.secondaryTier().replica(rr.servedBy);
            universe.runUntil(
                [&]() {
                    return holder.committedObject(doc.guid())
                               .version() >= wr.version;
                },
                universe.rt().now() + 60.0);
            rr = universe.readSync(from, doc.guid());
        }
        run.readWall.push_back(wallNow() - r0);
        if (rr.found &&
            toString(doc.decryptContent(rr.blocks)) == expected)
            run.verified++;
    }
    return run;
}

struct ServeResult
{
    Accumulator writeWall;
    Accumulator readWall;
    unsigned committed = 0;
    unsigned verified = 0;
    double measuredWall = 0.0;  //!< wall seconds for the serve phase
    std::size_t spans = 0;      //!< spans recorded when traced
};

/** Boot a Universe on @p kind and serve @p clients x @p writes.  The
 *  threaded case runs one real thread per client; sim runs them
 *  sequentially (virtual time, same protocol work).  With @p traced
 *  the whole run executes under an attached Tracer + FlightRecorder,
 *  exactly like `oscluster --trace`. */
ServeResult
runServe(RuntimeKind kind, unsigned clients, unsigned writes,
         std::uint64_t seed, bench::BenchContext *ctx = nullptr,
         bool traced = false)
{
    // Declared before the Universe so the scopes (and their hooks)
    // outlive every runtime thread that might record a span.
    Tracer tracer;
    FlightRecorder recorder;
    std::unique_ptr<TraceScope> traceScope;
    std::unique_ptr<FlightScope> flightScope;
    if (traced) {
        traceScope = std::make_unique<TraceScope>(tracer);
        flightScope = std::make_unique<FlightScope>(recorder, tracer,
                                                    "bench_runtime");
    }

    UniverseConfig cfg;
    cfg.numServers = 16;
    cfg.archiveOnCommit = false;
    cfg.seed = seed;
    cfg.runtime = kind;
    Universe universe(cfg);

    std::vector<ObjectHandle> docs;
    for (unsigned c = 0; c < clients; c++) {
        KeyPair user = universe.makeUser();
        docs.push_back(universe.createObject(
            user, "bench/doc-" + std::to_string(c)));
    }

    std::vector<ClientRun> runs(clients);
    if (ctx)
        ctx->beginMeasured();
    double t0 = wallNow();
#ifdef OCEANSTORE_THREADED
    if (kind == RuntimeKind::Threaded) {
        std::vector<std::thread> pool;
        for (unsigned c = 0; c < clients; c++)
            pool.emplace_back([&, c]() {
                runs[c] = serveClient(universe, docs[c], c, writes);
            });
        for (auto &t : pool)
            t.join();
    }
#endif
    if (kind == RuntimeKind::Sim) {
        for (unsigned c = 0; c < clients; c++)
            runs[c] = serveClient(universe, docs[c], c, writes);
    }
    double wall = wallNow() - t0;
    if (ctx)
        ctx->endMeasured();

    ServeResult res;
    res.measuredWall = wall;
    res.spans = tracer.buffer().size();
    for (const ClientRun &r : runs) {
        res.committed += r.committed;
        res.verified += r.verified;
        for (double v : r.writeWall)
            res.writeWall.add(v);
        for (double v : r.readWall)
            res.readWall.add(v);
    }
    return res;
}

void
emitMetrics(bench::BenchContext &ctx, const ServeResult &res)
{
    ctx.metric("write_p50_ms", "ms", res.writeWall.percentile(50) * 1e3);
    ctx.metric("write_p95_ms", "ms", res.writeWall.percentile(95) * 1e3);
    ctx.metric("read_p50_ms", "ms", res.readWall.percentile(50) * 1e3);
    ctx.metric("read_p95_ms", "ms", res.readWall.percentile(95) * 1e3);
    ctx.metric("writes_per_sec", "1/s",
               res.measuredWall > 0.0
                   ? res.committed / res.measuredWall
                   : 0.0);
    ctx.metric("verified_frac", "frac",
               res.committed > 0
                   ? static_cast<double>(res.verified) / res.committed
                   : 0.0);
    ctx.metric("trace_spans", "count",
               static_cast<double>(res.spans));
}

void
printRow(const char *name, const ServeResult &res)
{
    std::printf("  %-10s %3u commits  %3u verified  "
                "write p50 %7.2f ms  p95 %7.2f ms  "
                "read p50 %7.2f ms  %6.1f writes/s\n",
                name, res.committed, res.verified,
                res.writeWall.percentile(50) * 1e3,
                res.writeWall.percentile(95) * 1e3,
                res.readWall.percentile(50) * 1e3,
                res.measuredWall > 0.0
                    ? res.committed / res.measuredWall
                    : 0.0);
}

} // namespace

static int
reportMain()
{
    std::printf("=== runtime backends: sim vs threaded serve ===\n\n");
    const unsigned clients = 4, writes = 6;
    std::printf("%u clients x %u writes, 16 servers, wall-clock "
                "latencies on both backends\n\n",
                clients, writes);

    ServeResult sim =
        runServe(RuntimeKind::Sim, clients, writes, 0x5eedu);
    printRow("sim", sim);

    if (ThreadedRuntime::available()) {
        ServeResult thr =
            runServe(RuntimeKind::Threaded, clients, writes, 0x5eedu);
        printRow("threaded", thr);
        ServeResult trc =
            runServe(RuntimeKind::Threaded, clients, writes, 0x5eedu,
                     nullptr, /*traced=*/true);
        printRow("traced", trc);
        std::printf("\ntraced run recorded %zu spans; attached "
                    "overhead on write p50: %+.1f%%\n",
                    trc.spans,
                    thr.writeWall.percentile(50) > 0.0
                        ? 100.0 * (trc.writeWall.percentile(50) /
                                       thr.writeWall.percentile(50) -
                                   1.0)
                        : 0.0);
        bool ok = sim.verified == clients * writes &&
                  thr.verified == clients * writes &&
                  trc.verified == clients * writes;
        return ok ? 0 : 1;
    }
    std::printf("  threaded   (not built: configure with "
                "-DOCEANSTORE_THREADED=ON)\n");
    return sim.verified == clients * writes ? 0 : 1;
}

int
main(int argc, char **argv)
{
    using bench::BenchCase;
    using bench::BenchContext;
    std::vector<BenchCase> cases{
        {"sim_serve",
         [](BenchContext &ctx) {
             unsigned clients = ctx.smoke() ? 2 : 4;
             unsigned writes = ctx.smoke() ? 2 : 6;
             ServeResult res =
                 runServe(RuntimeKind::Sim, clients, writes,
                          ctx.seed(0x5eedu), &ctx);
             emitMetrics(ctx, res);
         }},
    };
    if (ThreadedRuntime::available()) {
        cases.push_back(
            {"threaded_serve", [](BenchContext &ctx) {
                 unsigned clients = ctx.smoke() ? 2 : 4;
                 unsigned writes = ctx.smoke() ? 2 : 6;
                 ServeResult res =
                     runServe(RuntimeKind::Threaded, clients, writes,
                              ctx.seed(0x5eedu), &ctx);
                 emitMetrics(ctx, res);
             }});
        cases.push_back(
            {"threaded_serve_traced", [](BenchContext &ctx) {
                 unsigned clients = ctx.smoke() ? 2 : 4;
                 unsigned writes = ctx.smoke() ? 2 : 6;
                 ServeResult res = runServe(
                     RuntimeKind::Threaded, clients, writes,
                     ctx.seed(0x5eedu), &ctx, /*traced=*/true);
                 emitMetrics(ctx, res);
             }});
    }
    return bench::runBenchMain(argc, argv, "bench_runtime", cases,
                               [](int, char **) { return reportMain(); });
}
