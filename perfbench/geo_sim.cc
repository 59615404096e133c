/**
 * @file
 * geo_sim: an open-loop, wide-area workload on the sim backend.
 *
 * A 192-server universe holds thousands of small objects, far more per
 * server than the 2048-bit attenuated Bloom filters can tell apart, so
 * reads often fall back to the Plaxton mesh.  Operations arrive per
 * grid region on a diurnal (sinusoidal) Poisson schedule and pick their
 * object by Zipf popularity (src/workload generators); about 90% are
 * reads.  Latencies are the paper's modeled (sim-clock) latencies,
 * timed from when each operation was due, so a write queued behind an
 * earlier write to the same object is charged the wait.
 *
 * The simulated horizon is fixed for a given --seconds, which makes
 * every count (events, messages, bytes) and every modeled latency an
 * exact function of the seed; only the wall-clock rate varies.
 */

#include <cmath>
#include <cstdio>
#include <deque>

#include "bench.h"
#include "sim/topology.h"
#include "util/random.h"
#include "workload/generators.h"

namespace osbench {

using namespace oceanstore;

namespace {

constexpr std::size_t geoServers = 128;
constexpr std::size_t geoObjects = 2000;
constexpr unsigned regionGrid = 3;
constexpr double zipfExponent = 0.9;
/** Mean operation arrivals per simulated second, per region. */
constexpr double regionRate = 40.0;
/** Simulated seconds of arrivals per second of --seconds.  The
 *  horizon, not the wall clock, bounds the run, so every count is an
 *  exact function of the seed. */
constexpr double simPerWallSecond = 6.0;
/** Simulated seconds per diurnal cycle. */
constexpr double dayLength = 10.0;
constexpr double readFrac = 0.90;
constexpr double restoreFrac = 0.02;
/** The most popular ranks get their initial content during set-up;
 *  the long tail starts empty (version 0) until first written. */
constexpr std::size_t warmRanks = 500;
/** Set-ups per untraced run; the median is reported. */
constexpr int setupRepeats = 5;
constexpr unsigned crashCycles = 32;
/** Simulated seconds the warm fill is given to settle. */
constexpr double settleSeconds = 2.0;
constexpr double crashDownFrac = 0.01; //!< Share of the horizon down.

struct GeoObj
{
    std::unique_ptr<ObjectHandle> handle;
    std::unique_ptr<ContentModel> model;
    VersionNum version = 0; //!< Last commit the client saw.
};

struct GeoRun
{
    const Options &opt;
    Universe &u;
    ObjectShape shape{512, 256, 256, 0.5, 16};
    Rng rng;
    ZipfGenerator zipf;
    DiurnalArrivals arrivals;
    KeyPair owner;
    std::unique_ptr<ArchivalClient> arch;
    std::vector<std::vector<std::size_t>> regionServers;
    /** Rank -> current object; retired objects stay alive (in-flight
     *  reads may still verify against them). */
    std::vector<GeoObj *> slot;
    std::vector<std::unique_ptr<GeoObj>> objects;
    /** Writes to one rank are serialized: the in-flight flag and the
     *  due times of the writes queued behind it. */
    std::vector<bool> writing;
    std::vector<std::deque<double>> queuedDue;
    int down = -1;

    std::uint64_t outstanding = 0;
    std::uint64_t attempted = 0, failed = 0, mismatches = 0, stale = 0;
    std::uint64_t writes = 0, reads = 0, restores = 0;
    std::uint64_t userBytes = 0, wireBytes = 0;
    std::vector<double> writeMs, readMs, restoreMs, restartMs;
    std::vector<double> doneAt; //!< Wall time of each verified op.
    CryptoSamples crypto;
    std::vector<Bytes> restoredStates;
    std::uint64_t clock = 0;

    GeoRun(const Options &o, Universe &universe)
        : opt(o), u(universe), rng(mix64(o.seed ^ 0x9e0u)),
          zipf(geoObjects, zipfExponent),
          arrivals(regionRate, 0.6, dayLength, regionGrid * regionGrid)
    {
    }

    GeoObj *
    newObject(std::size_t rank)
    {
        auto o = std::make_unique<GeoObj>();
        std::size_t n = objects.size();
        std::string name = "bench/geo_sim/s" + std::to_string(opt.seed) +
                           "/o" + std::to_string(n);
        ObjectHandle minted = u.createObject(owner, name);
        o->handle = std::make_unique<ObjectHandle>(owner, name,
                                                   shape.blockBytes);
        if (!(o->handle->guid() == minted.guid()))
            std::abort();
        o->model = std::make_unique<ContentModel>(
            mix64(mix64(opt.seed) ^ (0x6e0ull << 40) ^ n), shape,
            opt.corruptExpected);
        GeoObj *raw = o.get();
        objects.push_back(std::move(o));
        slot[rank] = raw;
        return raw;
    }

    std::size_t
    origin(unsigned region)
    {
        for (;;) {
            std::size_t s = rng.pick(regionServers[region]);
            if (static_cast<int>(s) != down ||
                regionServers[region].size() == 1)
                return s;
        }
    }

    /** Issue the next write to @p rank (retiring a capped object). */
    void
    issueWrite(std::size_t rank, double due)
    {
        GeoObj *o = slot[rank];
        if (o->version >= shape.writeCap)
            o = newObject(rank);
        writing[rank] = true;
        outstanding++;
        VersionNum v = o->version + 1;
        ContentModel::Step step = o->model->step(v);
        double t0 = wallNow();
        Update up = makeUpdate(*o->handle, step, o->version,
                               Timestamp{++clock, 7});
        double us = (wallNow() - t0) * 1e6;
        crypto.encryptSignUs.push_back(us);
        crypto.totalSeconds += us * 1e-6;
        wireBytes += up.wireSize();
        std::size_t bytes = step.plain.size();
        u.write(up, [this, rank, o, due, v, bytes](WriteResult wr) {
            outstanding--;
            attempted++;
            writes++;
            writeMs.push_back((u.rt().now() - due) * 1e3);
            if (!wr.completed || !wr.committed) {
                failed++;
                if (wr.completed)
                    o->version = std::max(o->version, wr.version);
            } else {
                if (wr.version != v)
                    mismatches++;
                o->version = wr.version;
                userBytes += bytes;
                doneAt.push_back(wallNow());
            }
            writing[rank] = false;
            if (!queuedDue[rank].empty()) {
                double next = queuedDue[rank].front();
                queuedDue[rank].pop_front();
                issueWrite(rank, next);
            }
        });
    }

    void
    write(std::size_t rank, double due)
    {
        if (writing[rank])
            queuedDue[rank].push_back(due);
        else
            issueWrite(rank, due);
    }

    void
    read(std::size_t rank, unsigned region, double due)
    {
        GeoObj *o = slot[rank];
        outstanding++;
        u.read(origin(region), o->handle->guid(),
               [this, o, due](ReadResult rr) {
                   outstanding--;
                   attempted++;
                   reads++;
                   readMs.push_back((u.rt().now() - due) * 1e3);
                   if (!rr.found) {
                       failed++;
                       return;
                   }
                   double t0 = wallNow();
                   Bytes plain = o->handle->decryptContent(rr.blocks);
                   double us = (wallNow() - t0) * 1e6;
                   crypto.decryptUs.push_back(us);
                   crypto.totalSeconds += us * 1e-6;
                   if (plain != o->model->expected(rr.version))
                       mismatches++;
                   if (rr.version < o->version)
                       stale++;
                   doneAt.push_back(wallNow());
               });
    }

    void
    restore(std::size_t rank, unsigned region, double due)
    {
        GeoObj *o = slot[rank];
        Guid archive = u.latestArchive(o->handle->guid());
        if (archive == Guid()) {
            read(rank, region, due); // fresh object, nothing archived yet
            return;
        }
        outstanding++;
        u.archival().reconstruct(
            *arch, archive, [this, o, due](const ReconstructResult &r) {
                outstanding--;
                attempted++;
                restores++;
                restoreMs.push_back((u.rt().now() - due) * 1e3);
                if (!r.success) {
                    failed++;
                    return;
                }
                VersionNum version = 0;
                std::vector<Bytes> blocks;
                double t0 = wallNow();
                bool ok = parseArchivedState(r.data, o->handle->guid(),
                                             version, blocks);
                Bytes plain;
                if (ok)
                    plain = o->handle->decryptContent(blocks);
                double us = (wallNow() - t0) * 1e6;
                crypto.decryptUs.push_back(us);
                crypto.totalSeconds += us * 1e-6;
                if (!ok || version == 0 ||
                    plain != o->model->expected(version)) {
                    mismatches++;
                }
                if (restoredStates.size() < 6)
                    restoredStates.push_back(r.data);
                doneAt.push_back(wallNow());
            });
    }

    void
    arrive(unsigned region, double when, double horizon)
    {
        if (when > horizon)
            return;
        u.rt().scheduleAt(when, [this, region, when, horizon] {
            std::size_t rank = zipf.sample(rng);
            double dice = rng.uniform();
            if (dice < readFrac - restoreFrac)
                read(rank, region, when);
            else if (dice < readFrac)
                restore(rank, region, when);
            else
                write(rank, when);
            arrive(region, arrivals.nextArrival(rng, region, when),
                   horizon);
        });
    }
};

/** Universe, objects and warm fill of the popular ranks. */
std::unique_ptr<Universe>
setUpGeo(const Options &opt, std::unique_ptr<GeoRun> &run)
{
    UniverseConfig cfg;
    cfg.runtime = RuntimeKind::Sim;
    cfg.numServers = geoServers;
    cfg.storage.kind = StorageKind::Log;
    cfg.archiveOnCommit = true;
    // cfg.seed stays at its default: the cluster is fixed, --seed
    // drives only the workload.
    auto u = std::make_unique<Universe>(cfg);
    run = std::make_unique<GeoRun>(opt, *u);
    GeoRun &g = *run;
    std::vector<unsigned> region =
        assignGridRegions(u->topology(), regionGrid);
    g.regionServers.resize(regionGrid * regionGrid);
    for (std::size_t s = 0; s < region.size(); s++)
        g.regionServers[region[s]].push_back(s);
    g.owner = u->makeUser();
    g.arch = u->archival().makeClient(0.5, 0.5);
    g.slot.assign(geoObjects, nullptr);
    g.writing.assign(geoObjects, false);
    g.queuedDue.resize(geoObjects);
    for (std::size_t r = 0; r < geoObjects; r++)
        g.newObject(r);
    for (std::size_t r = 0; r < warmRanks; r++)
        g.issueWrite(r, u->rt().now());
    u->runUntil([&] { return g.outstanding == 0; }, u->rt().now() + 3600);
    // Let dissemination and archival dispersal of the fill settle, so
    // the measured phase starts from a quiet system.
    u->advance(settleSeconds);
    if (g.failed || g.mismatches) {
        std::fprintf(stderr, "osbench: geo_sim warm fill failed\n");
        std::exit(3);
    }
    g.attempted = g.failed = g.writes = g.userBytes = g.wireBytes = 0;
    g.writeMs.clear();
    g.crypto = CryptoSamples{};
    return u;
}

struct GeoPhase
{
    PhaseCounts pc;
    std::uint64_t digest = 0;
};

GeoPhase
measureGeo(GeoRun &g, double horizon_span)
{
    Universe &u = g.u;
    MetricsSnapshot before = MetricsRegistry::global().snapshot();
    g.doneAt.clear();
    double wall0 = wallNow();
    double start = u.rt().now();
    double horizon = start + horizon_span;
    // Throughput windows cover the arrivals, not the drain after them.
    double wallAtHorizon = 0.0;
    u.rt().scheduleAt(horizon, [&wallAtHorizon] {
        wallAtHorizon = wallNow();
    });
    for (unsigned r = 0; r < g.regionServers.size(); r++)
        if (!g.regionServers[r].empty())
            g.arrive(r, g.arrivals.nextArrival(g.rng, r, start), horizon);
    // Crash/restart cycles at fixed sim times; the restart itself (log
    // replay, republication) is timed on the wall clock.
    for (unsigned i = 0; i < crashCycles; i++) {
        double at = start + horizon_span * (i + 1) / (crashCycles + 1);
        std::size_t server = crashVictim(u, i);
        u.rt().scheduleAt(at, [&g, &u, server] {
            u.crashServer(server);
            g.down = static_cast<int>(server);
        });
        u.rt().scheduleAt(at + horizon_span * crashDownFrac,
                          [&g, &u, server] {
                              double t0 = wallNow();
                              u.restartServer(server);
                              g.restartMs.push_back((wallNow() - t0) * 1e3);
                              g.down = -1;
                          });
    }
    u.runUntil(
        [&] { return u.rt().now() >= horizon && g.outstanding == 0; },
        horizon + 3600);
    double wall = wallNow() - wall0;

    GeoPhase out;
    PhaseCounts &pc = out.pc;
    pc.wall = wall;
    pc.opsPerS = windowedRate(g.doneAt, wall0, wallAtHorizon, rateWindows);
    pc.clientThreads = 1;
    pc.ops = g.attempted - g.failed;
    pc.writes = g.writes;
    pc.reads = g.reads;
    pc.restores = g.restores;
    pc.restarts = g.restartMs.size();
    pc.staleReads = g.stale;
    pc.userBytesWritten = g.userBytes;
    pc.crypto = g.crypto;
    pc.delta = MetricsRegistry::global().snapshot().deltaFrom(before);
    // Exact-count digest: events, messages, bytes and every modeled
    // latency, in completion order.
    std::uint64_t h = 1469598103934665603ull;
    auto fold = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
    for (const char *name : {"sim.events_fired", "net.sends", "net.bytes"}) {
        auto it = pc.delta.counters.find(name);
        fold(it == pc.delta.counters.end() ? 0 : it->second);
    }
    for (auto *v : {&g.writeMs, &g.readMs, &g.restoreMs})
        for (double x : *v)
            fold(static_cast<std::uint64_t>(std::llround(x * 1e6)));
    out.digest = h;
    return out;
}

} // namespace

RunResult
runGeoSim(const Options &opt)
{
    RunResult res;
    double horizon = opt.seconds * simPerWallSecond;

    auto finish = [&](GeoRun &g) {
        res.attempted += g.attempted;
        res.failed += g.failed;
        if (g.mismatches)
            res.correct = false;
    };

    if (!opt.trace) {
        std::vector<double> setup;
        std::unique_ptr<GeoRun> g;
        std::unique_ptr<Universe> u;
        double rss = 0.0;
        for (int rep = 0; rep < setupRepeats; rep++) {
            if (g)
                g->arch.reset();
            g.reset();
            u.reset();
            double t0 = wallNow();
            u = setUpGeo(opt, g);
            setup.push_back(wallNow() - t0);
            if (rep == 0)
                rss = peakRssMb();
        }
        GeoPhase ph = measureGeo(*g, horizon);
        finish(*g);
        std::uint64_t live = 0;
        for (auto &o : g->objects)
            live += o->model->sizeAt(o->version);
        res.add("setup_s", "s", median(setup));
        res.add("ops_per_s", "1/s", ph.pc.opsPerS);
        res.add("write_p50_ms", "ms", median(g->writeMs));
        res.add("read_p50_ms", "ms", median(g->readMs));
        res.add("restore_p50_ms", "ms", median(g->restoreMs));
        res.add("restart_p50_ms", "ms", median(g->restartMs));
        res.add("setup_peak_rss_mb", "MB", rss);
        res.add("stored_bytes_per_user_byte", "ratio",
                live ? storedBytes(*u) / static_cast<double>(live) : 0.0);
        res.note("read_p99_ms", "ms", percentile(g->readMs, 99));
        res.note("writes", "count", static_cast<double>(g->writeMs.size()));
        res.note("reads", "count", static_cast<double>(g->readMs.size()));
        res.note("restores", "count",
                 static_cast<double>(g->restoreMs.size()));
        res.note("sim_horizon_s", "s", horizon);
        res.note("counts_digest", "hash",
                 static_cast<double>(ph.digest >> 11));
        res.note("peak_rss_mb", "MB", peakRssMb());
        g->arch.reset();
        return res;
    }

    double half = horizon / 2.0;
    double untraced_ops_per_s = 0.0;
    {
        std::unique_ptr<GeoRun> g;
        auto u = setUpGeo(opt, g);
        GeoPhase ph = measureGeo(*g, half);
        untraced_ops_per_s = ph.pc.opsPerS;
        g->arch.reset();
    }
    Tracer tracer;
    PhaseProfiler profiler;
    std::unique_ptr<GeoRun> g;
    auto u = setUpGeo(opt, g);
    GeoPhase ph;
    {
        TraceScope ts(tracer);
        ProfileScope ps(profiler);
        ph = measureGeo(*g, half);
    }
    finish(*g);
    ProbeInputs in;
    in.cipherBlockBytes = g->shape.blockBytes;
    in.updateWireBytes = g->writes ? g->wireBytes / g->writes : 0;
    in.archivedStates = g->restoredStates;
    in.lostDataFragments = 1;
    for (std::size_t r = 0; r < 6; r++)
        in.sampleObjects.push_back(g->slot[r]->handle->guid());
    in.restartedServer = crashVictim(*u, crashCycles - 1);
    in.serverPositions = u->topology().positions;
    res.note("counts_digest", "hash", static_cast<double>(ph.digest >> 11));
    addLayerMetrics(res, *u, ph.pc, untraced_ops_per_s,
                    tracer.buffer().size(), in);
    g->arch.reset();
    dumpSpans(tracer, profiler,
              std::string(spanDumpDir) + "/geo_sim-seed" +
                  std::to_string(opt.seed) + ".spans.jsonl");
    return res;
}

} // namespace osbench
