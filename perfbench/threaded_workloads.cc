/**
 * @file
 * serve_small and archive_large: closed-loop client threads against a
 * 48-server Universe on the threaded backend (RS(16/32) archive on
 * commit, log-structured storage, default runtime and network).
 *
 * Each client thread owns its objects, so its compare-version
 * predicates never conflict.  An object is retired after
 * ObjectShape::writeCap writes and replaced by a fresh one, which keeps
 * the archived state (and with it each commit's encode cost) bounded
 * whatever the run length.  Clients block on the Universe's completion
 * callbacks, never on a sleep.  A separate operator thread crashes and
 * restarts one server at fixed write-count milestones, so the amount
 * of log a restart replays does not depend on how fast the run went,
 * and times each step with the clients parked.
 */

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "bench.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "util/random.h"

namespace osbench {

using namespace oceanstore;

namespace {

struct ThreadedSpec
{
    const char *name;
    unsigned clients;
    unsigned activeObjects; //!< Objects each client cycles through.
    ObjectShape shape;
    double writeFrac;
    double restoreFrac;
    unsigned restartEveryWrites; //!< 0 = no crash/restart cycles.
    unsigned maxRestarts;
    unsigned downOps; //!< Client ops completed while a server is down.
};

/** Longest wait for the transport to drain before a timed crash or
 *  restart (runtime-clock seconds); a busier system proceeds anyway. */
constexpr double drainTimeout = 1.0;

/** Set-ups per untraced run; the median is reported. */
constexpr int setupRepeats = 9;

/** Seconds a client waits for one completion before declaring the
 *  system hung (the run then fails). */
constexpr double completionTimeout = 60.0;

/** One completion a client thread blocks on; shared with the callback
 *  so a late callback never touches a dead frame. */
template <typename T>
struct Completion
{
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    T value;

    void
    set(T v)
    {
        {
            std::lock_guard<std::mutex> lk(mu);
            value = std::move(v);
            done = true;
        }
        cv.notify_one();
    }

    T
    wait()
    {
        std::unique_lock<std::mutex> lk(mu);
        if (!cv.wait_for(lk, std::chrono::duration<double>(
                                 completionTimeout),
                         [&] { return done; })) {
            std::fprintf(stderr, "osbench: no completion within %.0f s\n",
                         completionTimeout);
            std::fflush(stdout);
            std::_Exit(3);
        }
        return std::move(value);
    }
};

struct Obj
{
    std::unique_ptr<ObjectHandle> handle;
    std::unique_ptr<ContentModel> model;
    VersionNum version = 0;
};

/** Everything one client thread owns.  Samples are appended only by
 *  the owning thread and read after it is joined. */
struct Client
{
    unsigned id = 0;
    KeyPair user;
    std::vector<Obj> active;
    std::unique_ptr<ArchivalClient> arch;
    Rng rng;
    unsigned created = 0;
    std::uint64_t clock = 0;
    std::uint64_t retiredBytes = 0; //!< Live plaintext of retired objects.

    std::vector<double> writeMs, readMs, restoreMs;
    CryptoSamples crypto;
    std::uint64_t attempted = 0, failed = 0, mismatches = 0;
    std::uint64_t writes = 0, reads = 0, restores = 0, stale = 0;
    std::uint64_t writeFails = 0, readFails = 0, restoreFails = 0;
    std::uint64_t userBytes = 0, updateWireBytes = 0;
    std::vector<Bytes> restoredStates;
    std::vector<double> doneAt; //!< Wall time of each verified op.

    explicit Client(std::uint64_t seed) : rng(seed) {}
};

/** The cluster plus the client state that lives on it. */
struct Cluster
{
    std::unique_ptr<Universe> universe;
    std::vector<std::unique_ptr<Client>> clients;

    Cluster() = default;
    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    ~Cluster()
    {
        if (!universe)
            return;
        // Archival clients are runtime endpoints: detach them on the
        // strand, before the runtime itself shuts down.
        universe->rt().execute([&] {
            for (auto &c : clients)
                c->arch.reset();
        });
        universe.reset();
    }
};

/** State shared by the client threads and the operator thread. */
struct Shared
{
    Shared(const ThreadedSpec &s, const Options &o, Universe &u)
        : spec(s), opt(o), universe(u)
    {
    }

    const ThreadedSpec &spec;
    const Options &opt;
    Universe &universe;
    double deadline = 0.0;
    std::atomic<std::uint64_t> writes{0};
    std::atomic<std::uint64_t> opsDone{0};
    std::atomic<int> downServer{-1};
    std::atomic<bool> stop{false};
    std::mutex mu;
    std::condition_variable cv;
    /** Set by the operator to hold clients between operations. */
    bool pause = false;
    /** Clients currently held by pause, or finished. */
    unsigned idle = 0;

    /** A client finished an operation: count it, and park while the
     *  operator holds the clients. */
    void
    progress()
    {
        opsDone.fetch_add(1, std::memory_order_relaxed);
        std::unique_lock<std::mutex> lk(mu);
        if (pause)
            idle++;
        cv.notify_all();
        if (!pause)
            return;
        cv.wait(lk, [&] { return !pause; });
        idle--;
    }

    void
    clientDone()
    {
        std::lock_guard<std::mutex> lk(mu);
        idle++;
        cv.notify_all();
    }

    /** Run @p fn with every client parked between operations and the
     *  transport drained (no message in flight, no task queued), so a
     *  crash or restart is timed without queueing behind other work.
     *  @return the wall seconds @p fn took. */
    template <typename F>
    double
    quiesced(F &&fn)
    {
        std::unique_lock<std::mutex> lk(mu);
        pause = true;
        cv.wait(lk, [&] { return idle == spec.clients; });
        lk.unlock();
        universe.runUntil(
            [&] {
                RuntimeStats st = universe.rt().stats();
                return st.linkQueuedMessages == 0 &&
                       st.strandQueueDepth == 0;
            },
            universe.rt().now() + drainTimeout);
        double t0 = wallNow();
        fn();
        double t = wallNow() - t0;
        lk.lock();
        pause = false;
        cv.notify_all();
        return t;
    }
};

std::uint64_t
objectKey(std::uint64_t seed, unsigned client, unsigned n)
{
    return mix64(mix64(seed) ^ (static_cast<std::uint64_t>(client) << 32) ^
                 n);
}

WriteResult
writeAndWait(Universe &u, const Update &up)
{
    auto c = std::make_shared<Completion<WriteResult>>();
    u.write(up, [c](WriteResult wr) { c->set(wr); });
    return c->wait();
}

/** Write version o.version + 1. */
void
doWrite(Shared &sh, Client &c, Obj &o)
{
    VersionNum v = o.version + 1;
    ContentModel::Step step = o.model->step(v);
    double t0 = wallNow();
    Update up = makeUpdate(*o.handle, step, o.version,
                           Timestamp{++c.clock, 100 + c.id});
    double t1 = wallNow();
    WriteResult wr = writeAndWait(sh.universe, up);
    double t2 = wallNow();
    c.attempted++;
    c.writes++;
    c.writeMs.push_back((t2 - t0) * 1e3);
    c.crypto.encryptSignUs.push_back((t1 - t0) * 1e6);
    c.crypto.totalSeconds += t1 - t0;
    c.updateWireBytes += up.wireSize();
    sh.writes.fetch_add(1, std::memory_order_relaxed);
    if (!wr.completed || !wr.committed) {
        c.failed++;
        c.writeFails++;
        if (wr.completed)
            o.version = std::max(o.version, wr.version);
        return;
    }
    if (wr.version != v)
        c.mismatches++;
    o.version = wr.version;
    c.userBytes += step.plain.size();
}

Obj
newObject(Shared &sh, Client &c)
{
    Obj o;
    unsigned n = c.created++;
    std::string name = std::string("bench/") + sh.spec.name + "/s" +
                       std::to_string(sh.opt.seed) + "/c" +
                       std::to_string(c.id) + "/o" + std::to_string(n);
    ObjectHandle minted = sh.universe.createObject(c.user, name);
    o.handle = std::make_unique<ObjectHandle>(c.user, name,
                                              sh.spec.shape.blockBytes);
    if (!(o.handle->guid() == minted.guid()))
        std::abort();
    o.model = std::make_unique<ContentModel>(
        objectKey(sh.opt.seed, c.id, n), sh.spec.shape,
        sh.opt.corruptExpected);
    return o;
}

std::size_t
pickOrigin(Shared &sh, Client &c)
{
    std::size_t n = sh.universe.numServers();
    int down = sh.downServer.load(std::memory_order_relaxed);
    for (;;) {
        std::size_t s = c.rng.below(n);
        if (static_cast<int>(s) != down)
            return s;
    }
}

void
doRead(Shared &sh, Client &c, Obj &o)
{
    std::size_t from = pickOrigin(sh, c);
    auto done = std::make_shared<Completion<ReadResult>>();
    double t0 = wallNow();
    sh.universe.read(from, o.handle->guid(),
                     [done](ReadResult rr) { done->set(std::move(rr)); });
    ReadResult rr = done->wait();
    double t1 = wallNow();
    Bytes plain;
    if (rr.found)
        plain = o.handle->decryptContent(rr.blocks);
    double t2 = wallNow();
    c.attempted++;
    c.reads++;
    c.readMs.push_back((t2 - t0) * 1e3);
    c.crypto.decryptUs.push_back((t2 - t1) * 1e6);
    c.crypto.totalSeconds += t2 - t1;
    if (!rr.found) {
        c.failed++;
        c.readFails++;
        return;
    }
    if (rr.version > o.version || plain != o.model->expected(rr.version))
        c.mismatches++;
    if (rr.version < o.version)
        c.stale++;
}

/** Restore the object's latest archival version.  @return false when
 *  nothing is archived yet (rank 0 archives on commit, which may land
 *  just after the client saw its quorum of replies). */
bool
doRestore(Shared &sh, Client &c, Obj &o)
{
    auto done = std::make_shared<Completion<ReconstructResult>>();
    double t0 = wallNow();
    Guid archive = sh.universe.latestArchive(o.handle->guid());
    if (archive == Guid())
        return false;
    c.attempted++;
    c.restores++;
    sh.universe.rt().execute([&] {
        sh.universe.archival().reconstruct(
            *c.arch, archive,
            [done](const ReconstructResult &r) { done->set(r); });
    });
    ReconstructResult r = done->wait();
    double t1 = wallNow();
    VersionNum version = 0;
    std::vector<Bytes> blocks;
    bool parsed = r.success && parseArchivedState(r.data, o.handle->guid(),
                                                  version, blocks);
    Bytes plain;
    if (parsed)
        plain = o.handle->decryptContent(blocks);
    double t2 = wallNow();
    c.restoreMs.push_back((t2 - t0) * 1e3);
    c.crypto.decryptUs.push_back((t2 - t1) * 1e6);
    c.crypto.totalSeconds += t2 - t1;
    if (!r.success) {
        c.failed++;
        c.restoreFails++;
        return true;
    }
    if (!parsed || version == 0 || version > o.version ||
        plain != o.model->expected(version)) {
        c.mismatches++;
    }
    if (c.restoredStates.size() < 4)
        c.restoredStates.push_back(r.data);
    return true;
}

void
clientLoop(Shared &sh, Client &c)
{
    const ThreadedSpec &spec = sh.spec;
    // The op mix is an exact interleaving (credit counters), not a
    // random draw, so every run does the same mix; the seed picks the
    // objects, read origins and payloads.
    double writeCredit = static_cast<double>(c.id) / spec.clients;
    double restoreCredit = 0.5;
    while (wallNow() < sh.deadline) {
        std::uint64_t failed = c.failed;
        std::size_t idx = c.rng.below(c.active.size());
        writeCredit += spec.writeFrac;
        restoreCredit += spec.restoreFrac;
        if (writeCredit >= 1.0) {
            writeCredit -= 1.0;
            if (c.active[idx].version >= spec.shape.writeCap) {
                Obj &old = c.active[idx];
                c.retiredBytes += old.model->sizeAt(old.version);
                c.active[idx] = newObject(sh, c);
            }
            doWrite(sh, c, c.active[idx]);
        } else if (restoreCredit >= 1.0) {
            restoreCredit -= 1.0;
            if (!doRestore(sh, c, c.active[idx]))
                doRead(sh, c, c.active[idx]);
        } else {
            doRead(sh, c, c.active[idx]);
        }
        if (c.failed == failed)
            c.doneAt.push_back(wallNow());
        sh.progress();
    }
    sh.clientDone();
}

/** Crash/restart cycles at fixed write-count milestones.  The crash
 *  and the restart (log replay, fragment reload, republication) are
 *  each timed with the clients parked. */
void
operatorLoop(Shared &sh, std::vector<double> &restart_ms,
             std::size_t &last_server)
{
    const ThreadedSpec &spec = sh.spec;
    for (unsigned i = 0; i < spec.maxRestarts; i++) {
        std::uint64_t milestone =
            static_cast<std::uint64_t>(i + 1) * spec.restartEveryWrites;
        {
            std::unique_lock<std::mutex> lk(sh.mu);
            sh.cv.wait(lk, [&] {
                return sh.stop.load() || sh.writes.load() >= milestone;
            });
        }
        if (sh.stop.load())
            return;
        std::size_t server = crashVictim(sh.universe, i);
        double crash =
            sh.quiesced([&] { sh.universe.crashServer(server); });
        sh.downServer.store(static_cast<int>(server));
        std::uint64_t until = sh.opsDone.load() + spec.downOps;
        {
            std::unique_lock<std::mutex> lk(sh.mu);
            sh.cv.wait(lk, [&] {
                return sh.stop.load() || sh.opsDone.load() >= until;
            });
        }
        if (sh.stop.load())
            return; // measure() restarts it once the clients are done
        double restart =
            sh.quiesced([&] { sh.universe.restartServer(server); });
        sh.downServer.store(-1);
        restart_ms.push_back((crash + restart) * 1e3);
        last_server = server;
    }
}

/** Build the cluster: universe, users, archival clients and each
 *  client's warm objects (version 1 written). */
std::unique_ptr<Cluster>
setUp(const ThreadedSpec &spec, const Options &opt)
{
    auto cl = std::make_unique<Cluster>();
    UniverseConfig cfg;
    cfg.runtime = RuntimeKind::Threaded;
    cfg.numServers = 48;
    cfg.storage.kind = StorageKind::Log;
    cfg.archiveOnCommit = true;
    // cfg.seed stays at its default: the cluster (topology, keys,
    // placement) is the system under test and is the same for every
    // run; --seed drives only the workload.
    cl->universe = std::make_unique<Universe>(cfg);
    Universe &u = *cl->universe;

    Shared sh(spec, opt, u);
    for (unsigned i = 0; i < spec.clients; i++) {
        auto c = std::make_unique<Client>(mix64(opt.seed * 31 + i));
        c->id = i;
        c->user = u.makeUser();
        u.rt().execute(
            [&] { c->arch = u.archival().makeClient(0.5, 0.5); });
        for (unsigned k = 0; k < spec.activeObjects; k++)
            c->active.push_back(newObject(sh, *c));
        cl->clients.push_back(std::move(c));
    }
    // Warm fill: every active object gets its initial content.
    for (auto &c : cl->clients) {
        for (Obj &o : c->active) {
            ContentModel::Step step = o.model->step(1);
            Update up = makeUpdate(*o.handle, step, 0,
                                   Timestamp{++c->clock, 100 + c->id});
            WriteResult wr = writeAndWait(u, up);
            if (!wr.committed) {
                std::fprintf(stderr, "osbench: warm fill write failed\n");
                std::exit(3);
            }
            o.version = wr.version;
        }
    }
    return cl;
}

/** Run the clients (and operator) for @p seconds on @p cl. */
PhaseCounts
measure(const ThreadedSpec &spec, const Options &opt, Cluster &cl,
        double seconds, std::vector<double> &restart_ms,
        std::size_t &restarted)
{
    Universe &u = *cl.universe;
    Shared sh(spec, opt, u);
    MetricsSnapshot before = MetricsRegistry::global().snapshot();
    RuntimeStats rt0 = u.rt().stats();
    double t0 = wallNow();
    sh.deadline = t0 + seconds;
    std::thread op;
    if (spec.restartEveryWrites > 0)
        op = std::thread(
            [&] { operatorLoop(sh, restart_ms, restarted); });
    std::vector<std::thread> pool;
    for (auto &c : cl.clients)
        pool.emplace_back([&sh, cp = c.get()] { clientLoop(sh, *cp); });
    for (auto &t : pool)
        t.join();
    double wall = wallNow() - t0;
    {
        std::lock_guard<std::mutex> lk(sh.mu);
        sh.stop.store(true);
        sh.cv.notify_all();
    }
    if (op.joinable())
        op.join();
    // A server still down at the deadline is restarted (untimed) so
    // the cluster ends whole.
    int down = sh.downServer.load();
    if (down >= 0)
        u.restartServer(static_cast<std::size_t>(down));

    PhaseCounts pc;
    pc.wall = wall;
    std::vector<double> done_at;
    for (auto &c : cl.clients)
        done_at.insert(done_at.end(), c->doneAt.begin(), c->doneAt.end());
    pc.opsPerS = windowedRate(done_at, t0, t0 + seconds, rateWindows);
    pc.clientThreads = spec.clients;
    pc.restarts = restart_ms.size();
    pc.delta = MetricsRegistry::global().snapshot().deltaFrom(before);
    // Utilization over the measured phase only (stats are cumulative).
    RuntimeStats rt1 = u.rt().stats();
    double cap = (rt1.uptime - rt0.uptime) * static_cast<double>(rt1.workers);
    if (cap > 0.0)
        pc.workerUtilization =
            (rt1.workerUtilization * rt1.uptime -
             rt0.workerUtilization * rt0.uptime) *
            static_cast<double>(rt1.workers) / cap;
    for (auto &c : cl.clients) {
        pc.ops += c->attempted - c->failed;
        pc.writes += c->writes;
        pc.reads += c->reads;
        pc.restores += c->restores;
        pc.staleReads += c->stale;
        pc.userBytesWritten += c->userBytes;
        auto &cs = c->crypto;
        pc.crypto.encryptSignUs.insert(pc.crypto.encryptSignUs.end(),
                                       cs.encryptSignUs.begin(),
                                       cs.encryptSignUs.end());
        pc.crypto.decryptUs.insert(pc.crypto.decryptUs.end(),
                                   cs.decryptUs.begin(),
                                   cs.decryptUs.end());
        pc.crypto.totalSeconds += cs.totalSeconds;
    }
    return pc;
}

ProbeInputs
probeInputs(const ThreadedSpec &spec, Cluster &cl, std::size_t restarted)
{
    ProbeInputs in;
    Universe &u = *cl.universe;
    in.cipherBlockBytes = spec.shape.blockBytes;
    std::uint64_t wire = 0, writes = 0;
    for (auto &c : cl.clients) {
        wire += c->updateWireBytes;
        writes += c->writes;
        for (const Bytes &s : c->restoredStates)
            if (in.archivedStates.size() < 6)
                in.archivedStates.push_back(s);
        for (const Obj &o : c->active)
            if (in.sampleObjects.size() < 6)
                in.sampleObjects.push_back(o.handle->guid());
    }
    in.updateWireBytes = writes ? wire / writes : spec.shape.updateBytes;
    in.lostDataFragments = spec.restartEveryWrites > 0 ? 2 : 0;
    in.restartedServer = restarted;
    in.serverPositions = u.topology().positions;
    return in;
}

RunResult
runThreaded(const ThreadedSpec &spec, const Options &opt)
{
    RunResult res;
    if (!ThreadedRuntime::available()) {
        std::fprintf(stderr, "osbench: built without OCEANSTORE_THREADED\n");
        std::exit(2);
    }

    if (!opt.trace) {
        // Set-up is repeated and its median reported; the last
        // cluster built is the one measured.
        // Peak memory is read after the first set-up, before repeats
        // and allocator reuse can blur it.
        std::vector<double> setup;
        std::unique_ptr<Cluster> cl;
        double rss = 0.0;
        for (int rep = 0; rep < setupRepeats; rep++) {
            cl.reset();
            double t0 = wallNow();
            cl = setUp(spec, opt);
            setup.push_back(wallNow() - t0);
            if (rep == 0)
                rss = peakRssMb();
        }
        std::vector<double> restart_ms;
        std::size_t restarted = 0;
        PhaseCounts pc =
            measure(spec, opt, *cl, opt.seconds, restart_ms, restarted);

        std::vector<double> w, r, s;
        std::uint64_t live = 0, wf = 0, rf = 0, sf = 0;
        for (auto &c : cl->clients) {
            wf += c->writeFails;
            rf += c->readFails;
            sf += c->restoreFails;
            w.insert(w.end(), c->writeMs.begin(), c->writeMs.end());
            r.insert(r.end(), c->readMs.begin(), c->readMs.end());
            s.insert(s.end(), c->restoreMs.begin(), c->restoreMs.end());
            res.attempted += c->attempted;
            res.failed += c->failed;
            if (c->mismatches)
                res.correct = false;
            live += c->retiredBytes;
            for (Obj &o : c->active)
                live += o.model->sizeAt(o.version);
        }
        double stored = storedBytes(*cl->universe);
        res.add("setup_s", "s", median(setup));
        res.add("ops_per_s", "1/s", pc.opsPerS);
        res.add("write_p50_ms", "ms", median(w));
        res.add("read_p50_ms", "ms", median(r));
        res.add("restore_p50_ms", "ms", median(s));
        res.add("restart_p50_ms", "ms", median(restart_ms));
        res.add("setup_peak_rss_mb", "MB", rss);
        res.add("stored_bytes_per_user_byte", "ratio",
                live ? stored / static_cast<double>(live) : 0.0);
        if (w.size() >= 1000)
            res.note("write_p99_ms", "ms", percentile(w, 99));
        if (r.size() >= 1000)
            res.note("read_p99_ms", "ms", percentile(r, 99));
        res.note("writes", "count", static_cast<double>(w.size()));
        res.note("reads", "count", static_cast<double>(r.size()));
        res.note("restores", "count", static_cast<double>(s.size()));
        res.note("restarts", "count", static_cast<double>(restart_ms.size()));
        res.note("peak_rss_mb", "MB", peakRssMb());
        res.note("failed_writes", "count", static_cast<double>(wf));
        res.note("failed_reads", "count", static_cast<double>(rf));
        res.note("failed_restores", "count", static_cast<double>(sf));
        return res;
    }

    // Traced run: an untraced half for the overhead baseline, then a
    // traced half on a fresh cluster with the Tracer and PhaseProfiler
    // attached.  Per-layer metrics come from the traced half.
    double half = opt.seconds / 2.0;
    double untraced_ops_per_s = 0.0;
    {
        auto cl = setUp(spec, opt);
        std::vector<double> restart_ms;
        std::size_t restarted = 0;
        PhaseCounts pc = measure(spec, opt, *cl, half, restart_ms, restarted);
        untraced_ops_per_s = pc.opsPerS;
    }
    // Declared before the cluster so they outlive every runtime thread
    // that might record a span or fire a profiled event; attached only
    // once set-up is done, so the trace covers the measured phase.
    Tracer tracer;
    PhaseProfiler profiler;
    auto cl = setUp(spec, opt);
    std::vector<double> restart_ms;
    std::size_t restarted = 0;
    PhaseCounts pc;
    {
        TraceScope ts(tracer);
        ProfileScope ps(profiler);
        pc = measure(spec, opt, *cl, half, restart_ms, restarted);
    }
    for (auto &c : cl->clients) {
        res.attempted += c->attempted;
        res.failed += c->failed;
        if (c->mismatches)
            res.correct = false;
    }
    // Probes run detached, so their own module instances stay out of
    // the trace.
    addLayerMetrics(res, *cl->universe, pc, untraced_ops_per_s,
                    tracer.buffer().size(), probeInputs(spec, *cl, restarted));
    cl.reset();
    dumpSpans(tracer, profiler,
              std::string(spanDumpDir) + "/" + spec.name + "-seed" +
                  std::to_string(opt.seed) + ".spans.jsonl");
    return res;
}

} // namespace

RunResult
runServeSmall(const Options &opt)
{
    ThreadedSpec spec{};
    spec.name = "serve_small";
    spec.clients = 3;
    spec.activeObjects = 8;
    spec.shape = ObjectShape{1024, 256, 256, 0.5, 24};
    spec.writeFrac = 0.5;
    spec.restoreFrac = 0.02;
    spec.restartEveryWrites = 50;
    spec.maxRestarts = 24;
    spec.downOps = 40;
    return runThreaded(spec, opt);
}

RunResult
runArchiveLarge(const Options &opt)
{
    ThreadedSpec spec{};
    spec.name = "archive_large";
    spec.clients = 1;
    spec.activeObjects = 2;
    spec.shape = ObjectShape{256 * 1024, 16 * 1024, 16 * 1024, 0.0, 12};
    spec.writeFrac = 0.25;
    spec.restoreFrac = 0.25;
    spec.restartEveryWrites = 5;
    spec.maxRestarts = 24;
    spec.downOps = 4;
    return runThreaded(spec, opt);
}

} // namespace osbench
