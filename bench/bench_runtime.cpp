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
 *                   threads against the wall-clock event loop
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

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

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
runServe(bench::BenchContext &ctx, RuntimeKind kind, unsigned clients,
         unsigned writes, bool traced)
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
    cfg.seed = ctx.seed(0x5eedu);
    cfg.runtime = kind;
    Universe universe(cfg);

    std::vector<ObjectHandle> docs;
    for (unsigned c = 0; c < clients; c++) {
        KeyPair user = universe.makeUser();
        docs.push_back(universe.createObject(
            user, "bench/doc-" + std::to_string(c)));
    }

    std::vector<ClientRun> runs(clients);
    ctx.beginMeasured();
    double t0 = wallNow();
    if (kind == RuntimeKind::Threaded) {
        std::vector<std::thread> pool;
        for (unsigned c = 0; c < clients; c++)
            pool.emplace_back([&, c]() {
                runs[c] = serveClient(universe, docs[c], c, writes);
            });
        for (auto &t : pool)
            t.join();
    } else {
        for (unsigned c = 0; c < clients; c++)
            runs[c] = serveClient(universe, docs[c], c, writes);
    }
    double wall = wallNow() - t0;
    ctx.endMeasured();

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

/** Serve 4 clients x 6 writes (2 x 2 under --smoke) on @p kind and
 *  report the client-visible latencies and throughput. */
void
serveCase(bench::BenchContext &ctx, RuntimeKind kind, bool traced)
{
    unsigned clients = ctx.smoke() ? 2 : 4;
    unsigned writes = ctx.smoke() ? 2 : 6;
    ServeResult res = runServe(ctx, kind, clients, writes, traced);
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
    // Every write committed and was read back byte-for-byte.
    ctx.metric("claim_all_verified", "bool",
               res.verified == clients * writes);
}

} // namespace

int
main(int argc, char **argv)
{
    using bench::BenchContext;
    std::vector<bench::BenchCase> cases{
        {"sim_serve", [](BenchContext &ctx) {
             serveCase(ctx, RuntimeKind::Sim, false);
         }},
        {"threaded_serve", [](BenchContext &ctx) {
             serveCase(ctx, RuntimeKind::Threaded, false);
         }},
        {"threaded_serve_traced", [](BenchContext &ctx) {
             serveCase(ctx, RuntimeKind::Threaded, true);
         }}};
    return bench::runBenchMain(argc, argv, "bench_runtime", cases);
}
