/**
 * @file
 * Ablation: conflict resolution vs pure detection (Sections 4.4.1
 * and 6).
 *
 * "Conflict resolution reduces the number of aborts normally seen in
 * detection-based schemes such as optimistic concurrency control",
 * and from the related-work comparison: "our merge predicates should
 * decrease the number of transactions aborted due to out-of-date
 * caches."
 *
 * Workload: W writers per round read the shared object, then all
 * submit an update based on the same observed version — the classic
 * write-hot-spot.  Two update styles:
 *
 *   detection:  one clause guarded by compare-version; any writer who
 *               lost the race aborts and retries next round.
 *   resolution: the same guarded clause, plus a fallback merge clause
 *               (unconditional append) that fires when the fast path
 *               fails — the Bayou-style conflict resolver.
 *
 * Report aborts per 100 intents and rounds needed to land every
 * intent, across contention levels.
 */

#include <string>
#include <vector>

#include "core/universe.h"
#include "runner.h"

using namespace oceanstore;

namespace {

struct RunStats
{
    unsigned intents = 0;
    unsigned aborts = 0;
    unsigned rounds = 0;
};

/**
 * Land @p total_intents on one hot object, @p writers per round, each
 * conditioning on the version read at the start of the round.  Only
 * the rounds are measured (Universe construction excluded).
 */
RunStats
runWorkload(bench::BenchContext &ctx, unsigned writers,
            bool with_merge_clause, int total_intents)
{
    UniverseConfig cfg;
    cfg.numServers = 16;
    cfg.archiveOnCommit = false;
    cfg.seed = ctx.seed(cfg.seed);
    Universe uni(cfg);
    KeyPair owner = uni.makeUser();
    ObjectHandle obj = uni.createObject(owner, "hot-spot");

    RunStats stats;
    std::uint64_t ts = 0;
    int landed = 0;
    int next_payload = 0;

    ctx.beginMeasured();
    std::uint64_t ev0 = uni.sim().eventsExecuted();
    while (landed < total_intents && stats.rounds < 500) {
        stats.rounds++;
        // Everyone observes the same version (the out-of-date-cache
        // scenario), then all submit.
        ReadResult rr = uni.readSync(0, obj.guid());
        VersionNum seen = rr.found ? rr.version : 0;

        unsigned batch = std::min<unsigned>(
            writers, static_cast<unsigned>(total_intents - landed));
        for (unsigned w = 0; w < batch; w++) {
            Bytes payload =
                toBytes("intent-" + std::to_string(next_payload + w));
            Blob cipher = obj.encryptBlock(
                (seen + 1) * (1ull << 20) + w, payload);

            UpdateClause fast;
            fast.predicates.push_back(CompareVersion{seen});
            fast.actions.push_back(AppendBlock{cipher});

            std::vector<UpdateClause> clauses{fast};
            if (with_merge_clause) {
                // The resolver: when the fast path loses the race,
                // merge by appending anyway (appends commute for this
                // application, as in the paper's mail example).
                UpdateClause merge;
                merge.actions.push_back(AppendBlock{cipher});
                clauses.push_back(merge);
            }
            Update u = obj.makeUpdate(std::move(clauses), {++ts, w});
            stats.intents++;
            WriteResult wr = uni.writeSync(u);
            if (wr.completed && wr.committed) {
                landed++;
            } else {
                stats.aborts++;
            }
        }
        next_payload += batch;
        // Let dissemination settle so the next round's read observes
        // the latest committed version (isolates ordering conflicts
        // from staleness).
        uni.advance(5.0);
    }
    ctx.addEvents(uni.sim().eventsExecuted() - ev0);
    ctx.endMeasured();
    return stats;
}

double
abortsPer100(const RunStats &s)
{
    return s.intents ? 100.0 * s.aborts / s.intents : 0.0;
}

/** Throughput kernel: the merge-clause hot-spot workload with 4
 *  writers. */
void
mergeCommitLoop(bench::BenchContext &ctx)
{
    RunStats st = runWorkload(ctx, 4, true, ctx.smoke() ? 4 : 24);
    ctx.metric("aborts_per_100", "aborts", abortsPer100(st));
    ctx.metric("rounds", "rounds", st.rounds);
}

/**
 * The A4 table: aborts per 100 intents and rounds to land 48 intents,
 * detection-only vs with a merge clause, across contention levels.
 * Detection-only aborts grow with contention (all but one writer per
 * round loses); the merge clause commits every intent on first
 * submission -- zero aborts, W-fold fewer rounds.  This is why
 * OceanStore adopts Bayou-style conflict resolution over plain
 * optimistic concurrency.
 */
void
abortTable(bench::BenchContext &ctx)
{
    bool merge_never_aborts = true;
    for (unsigned writers : {2u, 4u, 8u, 16u}) {
        RunStats det = runWorkload(ctx, writers, false, 48);
        RunStats mrg = runWorkload(ctx, writers, true, 48);
        std::string k = "_w" + std::to_string(writers);
        ctx.metric("detection_aborts_per_100" + k, "aborts",
                   abortsPer100(det));
        ctx.metric("detection_rounds" + k, "rounds", det.rounds);
        ctx.metric("merge_aborts_per_100" + k, "aborts",
                   abortsPer100(mrg));
        ctx.metric("merge_rounds" + k, "rounds", mrg.rounds);
        merge_never_aborts &= mrg.aborts == 0;
    }
    ctx.metric("claim_merge_zero_aborts", "bool", merge_never_aborts);
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<bench::BenchCase> cases{
        {"merge_commit", mergeCommitLoop}, {"abort_table", abortTable}};
    return bench::runBenchMain(argc, argv, "bench_conflict_resolution",
                               cases);
}
