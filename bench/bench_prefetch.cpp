/**
 * @file
 * Section 5 reproduction: introspective prefetching under noise.
 *
 * "We have implemented the introspective prefetching mechanism for a
 * local file system.  Testing showed that the method correctly
 * captured high-order correlations, even in the presence of noise."
 *
 * Workload: a synthetic trace alternating between correlated file
 * runs (fixed sequences a1..a4, b1..b4 whose successor depends on
 * *two* previous accesses — a high-order correlation a first-order
 * model cannot disambiguate) and uniform random noise accesses.
 * Sweep the noise fraction, compare prediction hit rates for
 * order-1 vs order-2 prefetchers against the no-model baseline.
 */

#include <string>
#include <vector>

#include "introspect/prefetch.h"
#include "runner.h"
#include "util/random.h"
#include "util/stats.h"

using namespace oceanstore;

namespace {

/** The two working-set runs share the middle file "shared". */
struct Workload
{
    explicit Workload(std::uint64_t seed) : rng(seed)
    {
        Guid shared = Guid::hashOf("shared");
        runA = {Guid::hashOf("a1"), shared, Guid::hashOf("a3"),
                Guid::hashOf("a4")};
        runB = {Guid::hashOf("b1"), shared, Guid::hashOf("b3"),
                Guid::hashOf("b4")};
        for (int i = 0; i < 64; i++)
            noisePool.push_back(Guid::random(rng));
    }

    /** Next access; out-param says whether it is pattern traffic. */
    Guid
    next(double noise_fraction, bool *is_pattern)
    {
        if (rng.chance(noise_fraction)) {
            *is_pattern = false;
            return rng.pick(noisePool);
        }
        *is_pattern = true;
        const auto &run = inB ? runB : runA;
        Guid g = run[pos];
        if (++pos == run.size()) {
            pos = 0;
            inB = rng.chance(0.5);
        }
        return g;
    }

    Rng rng;
    std::vector<Guid> runA, runB, noisePool;
    std::size_t pos = 0;
    bool inB = false;
};

/** Hit rate: fraction of pattern accesses that were predicted. */
double
hitRate(unsigned order, double noise, std::uint64_t seed)
{
    Prefetcher prefetcher(order, 2);
    Workload workload(seed);

    // Train.
    for (int i = 0; i < 4000; i++) {
        bool is_pattern;
        prefetcher.onAccess(workload.next(noise, &is_pattern));
    }
    // Evaluate.
    unsigned hits = 0, total = 0;
    for (int i = 0; i < 2000; i++) {
        bool is_pattern;
        Guid g = workload.next(noise, &is_pattern);
        if (is_pattern) {
            total++;
            if (prefetcher.wouldHaveHit(g))
                hits++;
        }
        prefetcher.onAccess(g);
    }
    return total ? 100.0 * hits / total : 0.0;
}

/** Compute kernel: order-2 train+predict pass at 20% noise. */
void
trainPredict(bench::BenchContext &ctx)
{
    const int seeds = ctx.smoke() ? 1 : 5;
    const std::uint64_t base = ctx.seed(0);
    Accumulator hit;
    ctx.beginMeasured();
    for (int s = 1; s <= seeds; s++)
        hit.add(hitRate(2, 0.2,
                        base + static_cast<std::uint64_t>(s)));
    ctx.endMeasured();
    ctx.metric("order2_hit_pct", "%", hit.mean());
}

/**
 * The Section 5 table: order-1 and order-2 hit rates (mean of seeds
 * 1..5) vs noise fraction, against a baseline guessing 2 of the 7
 * working-set + noise objects.  At low noise order-2 beats order-1
 * (the shared-file successor is only predictable from two-deep
 * context); under heavy noise long contexts get polluted and the
 * model leans on its shorter-context fallback.  Both stay far above
 * baseline across the sweep -- capturing high-order correlations
 * "even in the presence of noise".
 */
void
noiseTable(bench::BenchContext &ctx)
{
    const std::uint64_t base = ctx.seed(0);
    bool above_baseline = true;
    for (int pct : {0, 10, 20, 40, 60, 80}) {
        double noise = pct / 100.0;
        Accumulator o1, o2;
        for (std::uint64_t s = 1; s <= 5; s++) {
            o1.add(hitRate(1, noise, base + s));
            o2.add(hitRate(2, noise, base + s));
        }
        double baseline = 100.0 * 2.0 / (7.0 + 64.0 * noise);
        std::string k = "_noise" + std::to_string(pct);
        ctx.metric("order1_hit_pct" + k, "%", o1.mean());
        ctx.metric("order2_hit_pct" + k, "%", o2.mean());
        ctx.metric("baseline_pct" + k, "%", baseline);
        above_baseline &= o1.mean() > 2 * baseline &&
                          o2.mean() > 2 * baseline;
    }
    ctx.metric("claim_beats_twice_baseline", "bool", above_baseline);
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<bench::BenchCase> cases{
        {"train_predict", trainPredict}, {"noise_table", noiseTable}};
    return bench::runBenchMain(argc, argv, "bench_prefetch", cases);
}
