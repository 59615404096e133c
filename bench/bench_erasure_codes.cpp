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
 * Encode and decode throughput for both families at the paper's
 * rate-1/2 geometry and three object sizes, plus a reconstruction
 * table showing how many fragments each family actually needs.  They
 * were also called faster, but on AVX2 machines Reed-Solomon with
 * split-nibble PSHUFB field kernels now encodes faster; the trade-off
 * that remains is Tornado's extra fragments.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "erasure/reed_solomon.h"
#include "erasure/tornado.h"
#include "runner.h"
#include "util/random.h"

using namespace oceanstore;

namespace {

Bytes
randomData(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    Bytes b(n);
    for (auto &x : b)
        x = static_cast<std::uint8_t>(rng.next());
    return b;
}

std::unique_ptr<ErasureCodec>
makeCode(bool tornado)
{
    if (tornado)
        return std::make_unique<TornadoCode>(16, 32);
    return std::make_unique<ReedSolomonCode>(16, 32);
}

/**
 * The shared kernel: encode, or decode from each family's hard case,
 * @p size bytes with a 16/32 code.  Reed-Solomon decodes from parity
 * alone (all data fragments lost: full matrix inversion); Tornado
 * from a fixed 75% random subset (XOR peeling only).  Iterations
 * cover 2.5 MiB per repeat (128 KiB under --smoke), at least one.
 */
void
codecLoop(bench::BenchContext &ctx, bool tornado, bool decode,
          std::size_t size)
{
    auto code = makeCode(tornado);
    Bytes data = randomData(size, ctx.seed(0xbe9c));
    std::vector<std::optional<Bytes>> slots(32);
    if (decode) {
        auto frags = code->encode(data);
        if (tornado) {
            Rng rng(4);
            for (auto i : rng.sampleIndices(32, 24))
                slots[i] = frags[i];
        } else {
            for (unsigned i = 16; i < 32; i++)
                slots[i] = frags[i];
        }
    }
    const std::size_t budget = (ctx.smoke() ? 2 : 40) * (64 << 10);
    const int iters = static_cast<int>(std::max<std::size_t>(
        1, budget / size));
    std::size_t ok = 0;
    ctx.beginMeasured();
    for (int i = 0; i < iters; i++) {
        if (decode)
            ok += code->decode(slots, size).has_value();
        else
            ok += code->encodeBlobs(data).size() == 32;
    }
    ctx.endMeasured();
    ctx.addEvents(static_cast<std::uint64_t>(iters));
    ctx.addBytes(static_cast<std::uint64_t>(iters) * size);
    if (decode)
        ctx.metric("decode_ok", "count", static_cast<double>(ok));
    else
        ctx.metric("encoded_mb", "MB",
                   static_cast<double>(iters) * size / (1 << 20));
}

/** Smallest number of surviving fragments for which >= 99% of 300
 *  random subsets decode (total + 1 if even all of them fall short). */
unsigned
fragmentsFor99(const ErasureCodec &code, const Bytes &data, Rng &rng)
{
    auto frags = code.encode(data);
    const unsigned total = code.totalFragments();
    for (unsigned keep = code.dataFragments(); keep <= total; keep++) {
        int ok = 0;
        const int trials = 300;
        for (int t = 0; t < trials; t++) {
            std::vector<std::optional<Bytes>> slots(total);
            for (auto i : rng.sampleIndices(total, keep))
                slots[i] = frags[i];
            ok += code.decode(slots, data.size()).has_value();
        }
        if (ok >= trials * 99 / 100)
            return keep;
    }
    return total + 1;
}

/** The reconstruction-overhead table: fragments each 16/32 code needs
 *  for ~99% success on 64 KiB (Tornado draws first, then RS, from one
 *  Rng). */
void
fragmentsTable(bench::BenchContext &ctx)
{
    Rng rng(ctx.seed(0x0e0e));
    Bytes data = randomData(64 << 10, ctx.seed(0xbe9c));
    unsigned tornado = fragmentsFor99(*makeCode(true), data, rng);
    unsigned rs = fragmentsFor99(*makeCode(false), data, rng);
    ctx.metric("data_frags", "frags", 16);
    ctx.metric("tornado_frags_99", "frags", tornado);
    ctx.metric("tornado_overhead_x", "x", tornado / 16.0);
    ctx.metric("rs_frags_99", "frags", rs);
    // Reed-Solomon is MDS: any k of the fragments reconstruct.
    ctx.metric("claim_rs_any_k_decode", "bool", rs == 16);
}

} // namespace

int
main(int argc, char **argv)
{
    using bench::BenchContext;
    std::vector<bench::BenchCase> cases{
        {"fragments_table", fragmentsTable}};
    // 64 KiB is the unsuffixed size, as recorded since the first run.
    const std::pair<const char *, std::size_t> sizes[] = {
        {"_4k", 4 << 10}, {"", 64 << 10}, {"_1m", 1 << 20}};
    for (bool tornado : {false, true}) {
        for (bool decode : {false, true}) {
            std::string op = !decode ? "_encode"
                             : tornado ? "_decode"
                                       : "_decode_worst";
            for (auto [suffix, size] : sizes) {
                cases.push_back(
                    {(tornado ? "tornado" : "rs") + op + suffix,
                     [=](BenchContext &ctx) {
                         codecLoop(ctx, tornado, decode, size);
                     }});
            }
        }
    }
    return bench::runBenchMain(argc, argv, "bench_erasure_codes", cases);
}
