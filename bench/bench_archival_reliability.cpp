/**
 * @file
 * Section 4.5 reliability table: replication vs deep archival
 * erasure coding.
 *
 * Reproduces the paper's numbers exactly: "with a million machines,
 * ten percent of which are currently down, simple replication without
 * erasure codes provides only two nines (0.99) of reliability.  A
 * 1/2-rate erasure coding of a document into 16 fragments gives the
 * document over five nines of reliability (0.999994), yet consumes
 * the same amount of storage.  With 32 fragments, the reliability
 * increases by another factor of 4000."
 *
 * Each closed-form row is validated against Monte-Carlo simulation of
 * random machine failures.
 */

#include <string>

#include "erasure/availability.h"
#include "runner.h"

using namespace oceanstore;

/**
 * The Section 4.5 table: closed-form availability of each scheme,
 * checked against a Monte-Carlo draw (all rows share one Rng, in row
 * order), then the 2-replica vs 16-fragment sweep over the fraction
 * of machines down.
 */
static void
reliabilityTable(oceanstore::bench::BenchContext &ctx)
{
    const std::uint64_t machines = 1'000'000;
    const std::uint64_t down = 100'000; // 10%

    struct Row
    {
        const char *key;
        std::uint64_t f;  //!< fragments (or replicas)
        std::uint64_t rf; //!< tolerable unavailable fragments
        double storage;   //!< relative to one plain copy
    };
    // Rate-1/2 coding into f fragments: any f/2 reconstruct; total
    // storage = 2x the object, the same as two full replicas.
    const Row rows[] = {
        {"1rep", 1, 0, 1.0},      {"2rep", 2, 1, 2.0},
        {"4rep", 4, 3, 4.0},      {"rs8", 8, 4, 2.0},
        {"rs16", 16, 8, 2.0},     {"rs32", 32, 16, 2.0},
        {"rs64", 64, 32, 2.0},    {"rs32_rate4", 32, 24, 4.0},
    };

    Rng rng(ctx.seed(0xa11ab1e));
    for (const Row &r : rows) {
        std::string k = r.key;
        double p = documentAvailability(machines, down, r.f, r.rf);
        ctx.metric("storage_" + k, "x", r.storage);
        ctx.metric("p_" + k, "p", p);
        ctx.metric("nines_" + k, "nines", nines(p));
        ctx.metric("mc_" + k, "p",
                   simulateAvailability(machines, down, r.f, r.rf,
                                        200000, rng));
    }
    // Paper anchors: two nines for 2 replicas, 0.999994 for 16
    // fragments, and ~4000x fewer failures again with 32.
    double p16 = documentAvailability(machines, down, 16, 8);
    double p32 = documentAvailability(machines, down, 32, 16);
    ctx.metric("improvement_32_vs_16", "x", (1.0 - p16) / (1.0 - p32));
    ctx.metric("claim_rs16_five_nines", "bool", p16 >= 0.99999);

    // Fragmentation wins until failure rates approach the code rate.
    for (int pct : {5, 10, 15, 20, 30, 40}) {
        auto m = static_cast<std::uint64_t>(pct / 100.0 * machines);
        std::string k = "_down" + std::to_string(pct);
        ctx.metric("p_2rep" + k, "p",
                   replicationAvailability(machines, m, 2));
        ctx.metric("p_rs16" + k, "p",
                   documentAvailability(machines, m, 16, 8));
    }
}

/** Compute kernel: closed-form availability + Monte-Carlo check for
 *  the paper's 16-fragment row. */
static void
availabilityKernel(oceanstore::bench::BenchContext &ctx)
{
    const std::uint64_t machines = 1'000'000;
    const std::uint64_t down = 100'000;
    const int trials = ctx.smoke() ? 2000 : 200000;

    Rng rng(ctx.seed(0xa11ab1e));
    ctx.beginMeasured();
    double p = documentAvailability(machines, down, 16, 8);
    double mc = simulateAvailability(machines, down, 16, 8, trials,
                                     rng);
    ctx.endMeasured();

    ctx.metric("nines_16frag", "nines", nines(p));
    ctx.metric("monte_carlo_p", "p", mc);
}

int
main(int argc, char **argv)
{
    std::vector<oceanstore::bench::BenchCase> cases{
        {"availability", availabilityKernel},
        {"reliability_table", reliabilityTable}};
    return oceanstore::bench::runBenchMain(
        argc, argv, "bench_archival_reliability", cases);
}
