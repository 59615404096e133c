/**
 * @file
 * oscluster: a live OceanStore cluster served by the threaded runtime.
 *
 * Boots a Universe on a RuntimeKind::Threaded Runtime (DESIGN.md
 * section 15) — the simulator's event loop paced by the wall clock on
 * its own thread, over the framed loopback network — then hammers it with
 * concurrent client threads, each owning one object and issuing
 * signed writes through the Byzantine primary tier followed by
 * byte-verified reads through the two-tier locator.  Every client
 * checks that what it reads back is exactly what it committed, so the
 * run fails loudly on any consistency violation.  Shutdown is
 * graceful: clients join, the loop thread stops, and the universe
 * tears down cleanly (the run is TSan-clean in an
 * OCEANSTORE_SANITIZE=thread build).
 *
 * Usage: oscluster [--stats] [--trace] [clients] [writes-per-client]
 *        (defaults 4 clients, 6 writes)
 *
 * --stats: live dashboard — a PeriodicStatsExporter prints one
 *          runtime-health JSON line per half second while clients
 *          run, plus a full statusReport() at the end.
 * --trace: attach a Tracer and a FlightRecorder for the whole run;
 *          an OS_CHECK failure dumps the last spans + metrics to
 *          OCEANSTORE_CHAOS_DUMP_DIR for tracecat.
 */

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/universe.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "runtime/stats.h"

using namespace oceanstore;

namespace {

struct ClientStats
{
    unsigned writesCommitted = 0;
    unsigned readsVerified = 0;
    unsigned verifyFailures = 0;
};

/** One client's session: write, then read back and byte-verify. */
ClientStats
runClient(Universe &universe, const ObjectHandle &doc, unsigned id,
          unsigned writes)
{
    ClientStats st;
    std::string expectedText;
    for (unsigned w = 0; w < writes; w++) {
        std::string text = "client-" + std::to_string(id) +
                           " write-" + std::to_string(w);
        Bytes payload = toBytes(text);
        Update u = doc.makeAppendUpdate(payload,
                                        /*expected_version=*/w,
                                        Timestamp{w + 1, id});
        WriteResult wr = universe.writeSync(u);
        if (!wr.committed)
            continue;
        st.writesCommitted++;
        expectedText += text;

        // Read back from a server picked by the client id and verify
        // every committed block byte-for-byte.  Commitment reaches
        // the floating replicas through the dissemination tree, so
        // when the serving holder is still behind, wait until its
        // committed version catches up and read again.
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
        // Blocks travel as ciphertext (client-side encryption,
        // Section 3.1); decrypt with the object's read key and
        // compare byte-for-byte against everything committed so far.
        bool ok = rr.found &&
                  toString(doc.decryptContent(rr.blocks)) ==
                      expectedText;
        if (ok)
            st.readsVerified++;
        else
            st.verifyFailures++;
    }
    return st;
}

} // namespace

int
main(int argc, char **argv)
{
    bool statsMode = false;
    bool traceMode = false;
    std::vector<unsigned> positional;
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        if (arg == "--stats")
            statsMode = true;
        else if (arg == "--trace")
            traceMode = true;
        else
            positional.push_back(
                static_cast<unsigned>(std::atoi(argv[i])));
    }
    unsigned clients = positional.size() > 0 ? positional[0] : 4;
    unsigned writes = positional.size() > 1 ? positional[1] : 6;
    if (clients < 1)
        clients = 1;

    UniverseConfig cfg;
    cfg.numServers = 16;
    cfg.archiveOnCommit = false; // keep the serving path hot
    cfg.runtime = RuntimeKind::Threaded;
    std::printf("== oscluster: threaded backend, %u clients x %u "
                "writes ==\n",
                clients, writes);

    // Observability attaches *before* the universe boots so setup
    // spans and timers are captured too.  Both are optional: with
    // neither flag the serve path pays one null check per hook.
    Tracer tracer;
    FlightRecorder recorder;
    std::unique_ptr<TraceScope> traceScope;
    std::unique_ptr<FlightScope> flightScope;
    if (traceMode) {
        traceScope = std::make_unique<TraceScope>(tracer);
        flightScope = std::make_unique<FlightScope>(recorder, tracer,
                                                    "oscluster");
    }

    Universe universe(cfg);

    PeriodicStatsExporter exporter(
        universe.rt(), 0.5,
        [](const RuntimeStats &s, const MetricsSnapshot &) {
            std::ostringstream line;
            writeRuntimeStatsJson(s, line);
            std::printf("[stats] %s\n", line.str().c_str());
        });
    if (statsMode)
        exporter.start();

    // Each client owns one object; handles are minted up front so
    // the measured phase is pure serve traffic.
    std::vector<KeyPair> users;
    std::vector<ObjectHandle> docs;
    for (unsigned c = 0; c < clients; c++) {
        users.push_back(universe.makeUser());
        docs.push_back(universe.createObject(
            users.back(), "client-" + std::to_string(c) + "/log"));
    }

    // Concurrent client threads against the live cluster API.  Every
    // entry point runs inside execute(), so no client-side locking is
    // needed.
    std::vector<ClientStats> stats(clients);
    std::vector<std::thread> pool;
    for (unsigned c = 0; c < clients; c++) {
        pool.emplace_back([&, c]() {
            stats[c] = runClient(universe, docs[c], c, writes);
        });
    }
    for (auto &t : pool)
        t.join();

    exporter.stop();
    if (statsMode)
        std::printf("[status] %s\n", universe.statusReport().c_str());
    if (traceMode)
        std::printf("[trace] %zu spans recorded, flight ring holds "
                    "%zu of last %zu\n",
                    tracer.buffer().size(), recorder.snapshot().size(),
                    recorder.capacity());

    unsigned committed = 0, verified = 0, failures = 0;
    for (unsigned c = 0; c < clients; c++) {
        committed += stats[c].writesCommitted;
        verified += stats[c].readsVerified;
        failures += stats[c].verifyFailures;
        std::printf(
            "client %u: %u/%u writes committed, %u reads verified\n",
            c, stats[c].writesCommitted, writes,
            stats[c].readsVerified);
    }
    std::printf("total: %u commits, %u byte-verified reads, "
                "%u failures; %llu messages, %llu bytes on the wire\n",
                committed, verified, failures,
                static_cast<unsigned long long>(
                    universe.rt().totalMessages()),
                static_cast<unsigned long long>(
                    universe.rt().totalBytes()));

    bool ok = failures == 0 && committed == clients * writes &&
              verified == committed;
    std::printf("%s\n", ok ? "OK: cluster served all clients"
                           : "FAILED: verification errors");
    // ~Universe stops the loop thread before tearing the tiers down.
    return ok ? 0 : 1;
}
