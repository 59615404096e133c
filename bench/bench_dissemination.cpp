/**
 * @file
 * Ablation A1 (Section 4.4.3): dissemination tree vs pure epidemic
 * for committed-update propagation.
 *
 * The paper organizes secondary replicas into application-level
 * multicast trees that push committed updates downward, with the
 * epidemic protocol as the gap-filler.  This ablation measures, for
 * growing secondary tiers, the time and bytes until *every* replica
 * holds a committed update when it is (a) pushed down the tree versus
 * (b) left to anti-entropy alone, plus (c) the invalidation-at-leaves
 * bandwidth saving for large updates.
 */

#include <memory>
#include <string>
#include <vector>

#include "consistency/secondary.h"
#include "runner.h"
#include "runtime/runtime.h"
#include "sim/fault.h"

using namespace oceanstore;

namespace {

/** What to push through a secondary tier, and how. */
struct Push
{
    std::size_t replicas = 0;
    int updates = 1;                //!< committed versions pushed
    bool treePush = true;           //!< false: anti-entropy only
    bool invalidate = false;        //!< invalidations at the leaves
    std::size_t updateBytes = 4096;
    bool antiEntropy = true;
    bool noopInjector = false;      //!< arm an all-zero FaultPlan
};

struct Result
{
    double seconds = -1.0;   //!< until every replica held the last
                             //!< version (-1: never)
    double kilobytes = 0.0;
};

/**
 * Inject @p p.updates committed versions one after another into a
 * @p p.replicas-wide tier and run each until every replica holds it
 * (or a deadline passes: 300 s with anti-entropy, else 30 s).  Only
 * the event-processing region is measured (tier construction
 * excluded).
 */
Result
propagate(bench::BenchContext &ctx, const Push &p)
{
    Simulator sim;
    NetworkConfig ncfg;
    ncfg.jitter = 0.05;
    Network net(sim, ncfg);

    // Bench guard for the fault-injection layer: with a default
    // (all-zero) FaultPlan armed, every send pays exactly one null
    // check plus a no-op verdict — comparing this case's p50 against
    // the plain tree_push case proves the hooks are free when off.
    std::unique_ptr<FaultInjector> inj;
    if (p.noopInjector) {
        inj = std::make_unique<FaultInjector>(sim, net, FaultPlan{});
        inj->arm();
    }

    Rng rng(ctx.seed(0xd15e) + p.replicas);
    std::vector<std::pair<double, double>> pos;
    for (std::size_t i = 0; i < p.replicas; i++)
        pos.emplace_back(rng.uniform(), rng.uniform());

    SecondaryConfig cfg;
    cfg.treePush = p.treePush;
    cfg.invalidateAtLeaves = p.invalidate;
    cfg.antiEntropyPeriod = 0.5;
    Runtime rt(sim, net);
    SecondaryTier tier(rt, pos, cfg);
    if (p.antiEntropy)
        tier.startAntiEntropy();

    Guid obj = Guid::hashOf("bench-object");
    net.resetCounters();
    Result out;
    ctx.beginMeasured();
    std::uint64_t ev0 = sim.eventsExecuted();
    for (int v = 1; v <= p.updates; v++) {
        Update u;
        u.objectGuid = obj;
        UpdateClause clause;
        clause.actions.push_back(AppendBlock{Bytes(p.updateBytes, 0x77)});
        u.clauses.push_back(clause);
        u.timestamp = {static_cast<std::uint64_t>(v), 1};
        auto version = static_cast<VersionNum>(v);
        tier.injectCommitted(u, version);
        double deadline = sim.now() + (p.antiEntropy ? 300.0 : 30.0);
        out.seconds = -1.0;
        while (sim.now() < deadline && out.seconds < 0) {
            sim.runUntil(sim.now() + 0.25);
            if (tier.allCommitted(obj, version))
                out.seconds = sim.now();
        }
    }
    ctx.addEvents(sim.eventsExecuted() - ev0);
    ctx.endMeasured();
    tier.stopAntiEntropy();
    out.kilobytes = static_cast<double>(net.totalBytes()) / 1024.0;
    return out;
}

/** Throughput kernel: push @p p through the tier and report when the
 *  last version landed everywhere and the bytes it took. */
void
pushMany(bench::BenchContext &ctx, const Push &p)
{
    Result r = propagate(ctx, p);
    ctx.metric("all_committed_s", "s", r.seconds);
    ctx.metric("bytes_kb", "kB", r.kilobytes);
}

/**
 * The A1 table: seconds and kB until every replica holds one 4 kB
 * committed update, tree push (Figure 5c) vs epidemic only, with the
 * 0.5 s anti-entropy running in both.  The tree delivers in O(depth)
 * x link latency with one copy per edge; anti-entropy alone takes
 * many rounds and re-ships digests, growing worse with tier size --
 * why the paper builds dissemination trees.
 */
void
treeVsEpidemicTable(bench::BenchContext &ctx)
{
    for (std::size_t n : {16u, 32u, 64u, 128u, 256u}) {
        std::string k = "_n" + std::to_string(n);
        for (bool tree : {true, false}) {
            Result r = propagate(ctx, {.replicas = n, .treePush = tree});
            std::string mode = tree ? "tree" : "epidemic";
            ctx.metric(mode + "_s" + k, "s", r.seconds);
            ctx.metric(mode + "_kb" + k, "kB", r.kilobytes);
        }
    }
}

/**
 * Invalidation-at-leaves bandwidth on 64 replicas without
 * anti-entropy (Section 4.4.3: "dissemination trees transform updates
 * into invalidations ... exploited at the leaves of the network where
 * bandwidth is limited").
 */
void
invalidationTable(bench::BenchContext &ctx)
{
    for (std::size_t kb : {1u, 16u, 64u, 256u}) {
        std::string k = "_" + std::to_string(kb) + "k";
        for (bool inval : {false, true}) {
            Result r = propagate(ctx, {.replicas = 64,
                                       .invalidate = inval,
                                       .updateBytes = kb << 10,
                                       .antiEntropy = false});
            ctx.metric((inval ? "invalidate_kb" : "full_push_kb") + k,
                       "kB", r.kilobytes);
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using bench::BenchCase;
    using bench::BenchContext;
    std::vector<BenchCase> cases{
        {"tree_push",
         [](BenchContext &ctx) {
             pushMany(ctx, {.replicas = ctx.smoke() ? 16u : 128u,
                            .updates = ctx.smoke() ? 2 : 40});
         }},
        {"epidemic",
         [](BenchContext &ctx) {
             pushMany(ctx, {.replicas = ctx.smoke() ? 8u : 64u,
                            .updates = ctx.smoke() ? 2 : 10,
                            .treePush = false});
         }},
        {"tree_push_fault_hooks_off",
         [](BenchContext &ctx) {
             pushMany(ctx, {.replicas = ctx.smoke() ? 16u : 128u,
                            .updates = ctx.smoke() ? 2 : 40,
                            .noopInjector = true});
         }},
        {"tree_vs_epidemic_table", treeVsEpidemicTable},
        {"invalidation_table", invalidationTable},
    };
    return bench::runBenchMain(argc, argv, "bench_dissemination", cases);
}
