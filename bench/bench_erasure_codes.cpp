/**
 * @file
 * Ablation A2 (Section 4.5, footnote 12): Reed-Solomon vs Tornado
 * codes.
 *
 * "The archival mechanism of OceanStore employs erasure codes, such
 * as interleaved Reed-Solomon codes and Tornado codes ... Tornado
 * codes, which are faster to encode and decode, require slightly more
 * than n fragments to reconstruct the information."
 *
 * google-benchmark timings for encode and worst-case decode at the
 * paper's geometries, plus a reconstruction-overhead table showing
 * how many fragments each family actually needs.
 */

#include <benchmark/benchmark.h>

#include "erasure/reed_solomon.h"
#include "erasure/tornado.h"
#include "runner.h"
#include "util/random.h"

using namespace oceanstore;

namespace {

Bytes
randomData(std::size_t n, std::uint64_t seed = 0xbe9c)
{
    Rng rng(seed);
    Bytes b(n);
    for (auto &x : b)
        x = static_cast<std::uint8_t>(rng.next());
    return b;
}

void
BM_ReedSolomonEncode(benchmark::State &state)
{
    ReedSolomonCode code(16, 32);
    Bytes data = randomData(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        auto frags = code.encode(data);
        benchmark::DoNotOptimize(frags);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * state.range(0));
}

void
BM_TornadoEncode(benchmark::State &state)
{
    TornadoCode code(16, 32);
    Bytes data = randomData(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        auto frags = code.encode(data);
        benchmark::DoNotOptimize(frags);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * state.range(0));
}

void
BM_ReedSolomonDecodeWorstCase(benchmark::State &state)
{
    // Worst case: all data fragments lost, decode from parity alone
    // (full matrix inversion).
    ReedSolomonCode code(16, 32);
    Bytes data = randomData(static_cast<std::size_t>(state.range(0)));
    auto frags = code.encode(data);
    std::vector<std::optional<Bytes>> slots(32);
    for (unsigned i = 16; i < 32; i++)
        slots[i] = frags[i];
    for (auto _ : state) {
        auto out = code.decode(slots, data.size());
        benchmark::DoNotOptimize(out);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * state.range(0));
}

void
BM_TornadoDecode(benchmark::State &state)
{
    // Tornado decode from a 75% random subset (XOR peeling only).
    TornadoCode code(16, 32);
    Bytes data = randomData(static_cast<std::size_t>(state.range(0)));
    auto frags = code.encode(data);
    Rng rng(4);
    auto keep = rng.sampleIndices(32, 24);
    std::vector<std::optional<Bytes>> slots(32);
    for (auto i : keep)
        slots[i] = frags[i];
    for (auto _ : state) {
        auto out = code.decode(slots, data.size());
        benchmark::DoNotOptimize(out);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * state.range(0));
}

BENCHMARK(BM_ReedSolomonEncode)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20);
BENCHMARK(BM_TornadoEncode)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20);
BENCHMARK(BM_ReedSolomonDecodeWorstCase)
    ->Arg(4 << 10)
    ->Arg(64 << 10)
    ->Arg(1 << 20);
BENCHMARK(BM_TornadoDecode)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20);

/** Fragments needed for 99% reconstruction success. */
void
printOverheadTable()
{
    std::printf("\n=== reconstruction overhead (fragments needed) "
                "===\n\n");
    std::printf("  %-22s %10s %18s\n", "code", "k (data)",
                "frags for ~99% ok");

    Rng rng(0x0e0e);
    Bytes data = randomData(64 << 10);

    // Reed-Solomon: any k suffice, by construction.
    std::printf("  %-22s %10u %18s\n", "reed-solomon(16/32)", 16,
                "16 (exactly k)");

    // Tornado: find the smallest subset size with >= 99% success.
    TornadoCode tc(16, 32);
    auto frags = tc.encode(data);
    for (unsigned keep = 16; keep <= 32; keep++) {
        int ok = 0;
        const int trials = 300;
        for (int t = 0; t < trials; t++) {
            auto pick = rng.sampleIndices(32, keep);
            std::vector<std::optional<Bytes>> slots(32);
            for (auto i : pick)
                slots[i] = frags[i];
            if (tc.decode(slots, data.size()).has_value())
                ok++;
        }
        if (ok >= trials * 99 / 100) {
            std::printf("  %-22s %10u %11u (%.2fx k)\n",
                        "tornado(16/32)", 16, keep, keep / 16.0);
            break;
        }
        if (keep == 32) {
            std::printf("  %-22s %10u %18s\n", "tornado(16/32)", 16,
                        "all 32");
        }
    }
    std::printf("\n  (paper footnote 12: Tornado codes \"require slightly "
                "more than n fragments\n   to reconstruct the "
                "information\".  They were also called faster, but on "
                "AVX2 machines\n   Reed-Solomon with split-nibble "
                "PSHUFB field kernels now encodes faster;\n   the "
                "trade-off that remains is Tornado's extra fragments)\n");
}

/** Compute kernel: rate-1/2 Reed-Solomon encode at 64 kB. */
void
rsEncodeLoop(bench::BenchContext &ctx)
{
    ReedSolomonCode code(16, 32);
    const std::size_t size = 64 << 10;
    Bytes data = randomData(size, ctx.seed(0xbe9c));
    const int iters = ctx.smoke() ? 2 : 40;
    std::size_t total = 0;
    ctx.beginMeasured();
    for (int i = 0; i < iters; i++)
        total += code.encode(data).size();
    ctx.endMeasured();
    ctx.addEvents(static_cast<std::uint64_t>(iters));
    ctx.addBytes(static_cast<std::uint64_t>(iters) * size);
    ctx.metric("encoded_mb", "MB",
               static_cast<double>(iters) * size / (1 << 20));
    (void)total;
}

/** Compute kernel: worst-case Reed-Solomon decode (parity only). */
void
rsDecodeLoop(bench::BenchContext &ctx)
{
    ReedSolomonCode code(16, 32);
    const std::size_t size = 64 << 10;
    Bytes data = randomData(size, ctx.seed(0xbe9c));
    auto frags = code.encode(data);
    std::vector<std::optional<Bytes>> slots(32);
    for (unsigned i = 16; i < 32; i++)
        slots[i] = frags[i];
    const int iters = ctx.smoke() ? 2 : 40;
    std::size_t ok = 0;
    ctx.beginMeasured();
    for (int i = 0; i < iters; i++)
        ok += code.decode(slots, data.size()).has_value();
    ctx.endMeasured();
    ctx.addEvents(static_cast<std::uint64_t>(iters));
    ctx.addBytes(static_cast<std::uint64_t>(iters) * size);
    ctx.metric("decode_ok", "count", static_cast<double>(ok));
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<bench::BenchCase> cases{
        {"rs_encode", rsEncodeLoop},
        {"rs_decode_worst", rsDecodeLoop},
    };
    return bench::runBenchMain(
        argc, argv, "bench_erasure_codes", cases,
        [](int argc2, char **argv2) {
            benchmark::Initialize(&argc2, argv2);
            benchmark::RunSpecifiedBenchmarks();
            printOverheadTable();
            return 0;
        });
}
