/**
 * @file
 * Figure 5 / Section 4.4.5 reproduction: the path of an update and
 * its end-to-end latency.
 *
 * "There are six phases of messages in the protocol ... Assuming
 * latency of messages over the wide area dominates computation time
 * and that each message takes 100ms, we have an approximate latency
 * per update of less than a second."
 *
 * We run the full path — client -> primary tier (request, pre-prepare,
 * prepare, commit, reply) -> dissemination tree to every secondary
 * replica — on a WAN whose typical one-way message latency is ~100 ms,
 * and report both the client-observed commit latency and the time for
 * the last secondary replica to hold the committed update.
 */

#include <memory>
#include <string>
#include <utility>

#include "core/universe.h"
#include "obs/profiler.h"
#include "runner.h"
#include "util/stats.h"

using namespace oceanstore;

namespace {

/**
 * Drive @p updates 512 B appends through the full client ->
 * agreement -> dissemination path on a ~100 ms WAN of @p servers;
 * for each, record the client-observed commit latency and the time
 * until every secondary replica holds it.  Only the update path (not
 * Universe construction/key generation) is measured.
 *
 * With @p breakdown (the Figure 5 table) a PhaseProfiler attributes
 * every event to its component, the latency distributions are
 * reported in full, and one more update is sent to count bytes per
 * message type.
 */
void
updatePath(bench::BenchContext &ctx, std::size_t servers, int updates,
           bool breakdown)
{
    UniverseConfig cfg;
    cfg.numServers = servers;
    cfg.archiveOnCommit = false;
    cfg.network.baseLatency = 0.050;
    cfg.network.latencyPerUnit = 0.100;
    cfg.network.jitter = 0.10;
    cfg.seed = ctx.seed(cfg.seed);
    Universe universe(cfg);

    KeyPair user = universe.makeUser();
    ObjectHandle doc = universe.createObject(user, "bench/doc");

    PhaseProfiler profiler;
    std::unique_ptr<ProfileScope> profile_scope;
    if (breakdown)
        profile_scope = std::make_unique<ProfileScope>(profiler);

    Accumulator commit, propagate;
    bool ok = true;
    std::uint64_t ts = 0;
    std::uint64_t ev0 = universe.sim().eventsExecuted();
    ctx.beginMeasured();
    for (int i = 0; i < updates; i++) {
        double start = universe.sim().now();
        WriteResult wr = universe.writeSync(doc.makeAppendUpdate(
            Bytes(512, static_cast<std::uint8_t>(i)),
            static_cast<VersionNum>(i), {++ts, 1}));
        ok = wr.completed && wr.committed;
        if (!ok)
            break;
        commit.add(wr.latency);

        VersionNum v = wr.version;
        universe.runUntil(
            [&]() {
                return universe.secondaryTier().allCommitted(doc.guid(),
                                                             v);
            },
            universe.sim().now() + 120.0);
        propagate.add(universe.sim().now() - start);
    }
    ctx.endMeasured();
    ctx.addEvents(universe.sim().eventsExecuted() - ev0);

    ctx.metric("commit_ms", "ms", commit.mean() * 1e3);
    ctx.metric("propagate_ms", "ms", propagate.mean() * 1e3);
    if (!breakdown)
        return;
    for (auto [name, acc] : {std::pair{"commit", &commit},
                             std::pair{"propagate", &propagate}}) {
        std::string k = name;
        ctx.metric(k + "_p50_ms", "ms", acc->percentile(50) * 1e3);
        ctx.metric(k + "_p95_ms", "ms", acc->percentile(95) * 1e3);
        ctx.metric(k + "_max_ms", "ms", acc->max() * 1e3);
    }
    // Six phases x ~100 ms => under a second (the paper's estimate).
    ctx.metric("claim_commit_under_1s", "bool",
               ok && commit.mean() < 1.0);

    universe.net().resetCounters();
    universe.writeSync(doc.makeAppendUpdate(
        Bytes(512, 0xee), static_cast<VersionNum>(updates), {++ts, 1}));
    universe.advance(30.0);
    for (const auto &[type, bytes] : universe.net().bytesByType())
        ctx.metric("bytes_" + type, "B", static_cast<double>(bytes));
    // Events fired per component and the summed schedule->fire
    // simulated delay each spent waiting (in flight or pending).
    for (const auto &row : profiler.stats()) {
        ctx.metric("phase_" + row.name + "_events", "count",
                   static_cast<double>(row.events));
        ctx.metric("phase_" + row.name + "_ms", "ms", row.delay * 1e3);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using bench::BenchCase;
    using bench::BenchContext;
    std::vector<BenchCase> cases{
        {"update_path",
         [](BenchContext &ctx) {
             updatePath(ctx, ctx.smoke() ? 10 : 64, ctx.smoke() ? 2 : 15,
                        false);
         }},
        {"figure5_table",
         [](BenchContext &ctx) { updatePath(ctx, 64, 30, true); }},
    };
    return bench::runBenchMain(argc, argv, "bench_update_latency", cases);
}
