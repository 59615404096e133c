/**
 * @file
 * Figure 4 reproduction: server-side operations on ciphertext.
 *
 * google-benchmark timings for every predicate and action a replica
 * can run without key material — compare-version/size/block, search,
 * replace/insert/delete/append — plus a wire-cost table showing that
 * the Figure 4 pointer-block insert ships O(1) bytes while a naive
 * re-upload would re-ship the whole object.
 *
 * Blocks are 256 B here so the timings isolate the server's pointer
 * and hashing work rather than memcpy of large payloads.
 */

#include <benchmark/benchmark.h>

#include "consistency/data_object.h"
#include "core/object_handle.h"
#include "crypto/keys.h"
#include "crypto/sha1.h"
#include "runner.h"

using namespace oceanstore;

namespace {

constexpr std::size_t kBlock = 256;

KeyRegistry g_registry;

const ObjectHandle &
handle()
{
    static KeyPair owner = g_registry.generate();
    static ObjectHandle h(owner, "bench-object", kBlock);
    return h;
}

/** A replica-side object preloaded with n encrypted blocks. */
const DataObject &
baseObject(std::size_t blocks)
{
    static std::map<std::size_t, DataObject> cache;
    auto it = cache.find(blocks);
    if (it == cache.end()) {
        DataObject obj(handle().guid());
        Update u;
        u.objectGuid = handle().guid();
        UpdateClause clause;
        for (std::size_t i = 0; i < blocks; i++) {
            clause.actions.push_back(AppendBlock{
                handle().encryptBlock(i, Bytes(kBlock, 0x41))});
        }
        u.clauses.push_back(std::move(clause));
        obj.apply(u);
        it = cache.emplace(blocks, std::move(obj)).first;
    }
    return it->second;
}

void
BM_CompareBlockPredicate(benchmark::State &state)
{
    const DataObject &obj = baseObject(64);
    CompareBlock cb = handle().expectBlock(5, 5, Bytes(kBlock, 0x41));
    for (auto _ : state)
        benchmark::DoNotOptimize(obj.evaluate(cb));
}
BENCHMARK(BM_CompareBlockPredicate);

void
BM_CompareVersionPredicate(benchmark::State &state)
{
    const DataObject &obj = baseObject(64);
    CompareVersion cv{1};
    for (auto _ : state)
        benchmark::DoNotOptimize(obj.evaluate(cv));
}
BENCHMARK(BM_CompareVersionPredicate);

void
BM_SearchPredicate(benchmark::State &state)
{
    // Search over a ciphertext index of `range` words.
    DataObject obj(handle().guid());
    std::string doc;
    for (int i = 0; i < state.range(0); i++)
        doc += "word" + std::to_string(i) + " ";
    Update u;
    u.objectGuid = handle().guid();
    UpdateClause clause;
    clause.actions.push_back(
        SetSearchIndex{handle().buildSearchIndex(doc)});
    u.clauses.push_back(clause);
    obj.apply(u);

    SearchPredicate sp;
    sp.trapdoor = handle().searchTrapdoor("word7");
    sp.expectPresent = true;
    for (auto _ : state)
        benchmark::DoNotOptimize(obj.evaluate(sp));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SearchPredicate)->Arg(64)->Arg(512)->Arg(4096);

/** Copy the base object and apply one action (copy cost included,
 *  identical across the action benchmarks, so deltas are the ops). */
template <typename MakeAction>
void
applyBench(benchmark::State &state, std::size_t blocks,
           MakeAction make_action)
{
    const DataObject &base = baseObject(blocks);
    Update u;
    u.objectGuid = handle().guid();
    UpdateClause clause;
    clause.actions.push_back(make_action());
    u.clauses.push_back(clause);
    for (auto _ : state) {
        DataObject obj = base;
        benchmark::DoNotOptimize(obj.apply(u));
    }
}

void
BM_InsertBlockAction(benchmark::State &state)
{
    // Figure 4: insert via pointer blocks — O(1) physical work
    // regardless of object size (the per-size growth below is the
    // object copy + logical-index refresh, not the insert).
    applyBench(state, static_cast<std::size_t>(state.range(0)), [] {
        return Action{InsertBlock{
            1, handle().encryptBlock(999, Bytes(kBlock, 0x42))}};
    });
}
BENCHMARK(BM_InsertBlockAction)->Arg(16)->Arg(256)->Arg(1024);

void
BM_ReplaceBlockAction(benchmark::State &state)
{
    applyBench(state, 64, [] {
        return Action{ReplaceBlock{
            3, handle().encryptBlock(888, Bytes(kBlock, 0x43))}};
    });
}
BENCHMARK(BM_ReplaceBlockAction);

void
BM_DeleteBlockAction(benchmark::State &state)
{
    applyBench(state, 64, [] { return Action{DeleteBlock{3}}; });
}
BENCHMARK(BM_DeleteBlockAction);

void
BM_AppendBlockAction(benchmark::State &state)
{
    applyBench(state, 64, [] {
        return Action{AppendBlock{
            handle().encryptBlock(777, Bytes(kBlock, 0x44))}};
    });
}
BENCHMARK(BM_AppendBlockAction);

void
BM_ClientEncryptBlock(benchmark::State &state)
{
    Bytes plain(4096, 0x50);
    std::uint64_t pos = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(handle().encryptBlock(pos++, plain));
    state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_ClientEncryptBlock);

/** Figure 4 semantics check + update-size table. */
void
printInsertTable()
{
    std::printf("\n=== Figure 4: insert-on-ciphertext wire cost "
                "===\n\n");
    std::printf("inserting one 4 kB block into an encrypted object "
                "(vs re-uploading all blocks):\n\n");
    std::printf("%14s %18s %20s\n", "object blocks", "insert update B",
                "full re-upload B");
    KeyPair owner = g_registry.generate();
    ObjectHandle h(owner, "wire-cost", 4096);
    for (std::size_t blocks : {16u, 64u, 256u, 1024u}) {
        Update ins = h.makeInsertUpdate(1, Bytes(4096, 0x42),
                                        /*expected_version=*/1,
                                        Timestamp{1, 1});
        std::size_t full = blocks * (4096 + 8) + 200; // all blocks
        std::printf("%14zu %18zu %20zu\n", blocks, ins.wireSize(),
                    full);
    }
    std::printf("\n  (the server moves pointers over opaque blocks; "
                "it \"learns nothing about\n   the contents of any of "
                "the blocks\" and the update cost is O(1), not "
                "O(object))\n");
}

/** Compute kernel: server-side predicate evaluation rate. */
void
predicateLoop(bench::BenchContext &ctx)
{
    const DataObject &obj = baseObject(64);
    CompareBlock cb = handle().expectBlock(5, 5, Bytes(kBlock, 0x41));
    const int iters = ctx.smoke() ? 1000 : 200000;
    volatile bool sink = false;
    ctx.beginMeasured();
    for (int i = 0; i < iters; i++)
        sink = obj.evaluate(cb);
    ctx.endMeasured();
    (void)sink;
    ctx.addEvents(static_cast<std::uint64_t>(iters));
}

/** Compute kernel: client-side position-dependent block encryption. */
void
encryptLoop(bench::BenchContext &ctx)
{
    Bytes plain(4096, 0x50);
    const int iters = ctx.smoke() ? 100 : 20000;
    std::uint64_t pos = 0;
    std::size_t total = 0;
    ctx.beginMeasured();
    for (int i = 0; i < iters; i++)
        total += handle().encryptBlock(pos++, plain).size();
    ctx.endMeasured();
    ctx.addEvents(static_cast<std::uint64_t>(iters));
    ctx.addBytes(static_cast<std::uint64_t>(iters) * plain.size());
    ctx.metric("cipher_bytes", "B", static_cast<double>(total));
}

/** Compute kernel: SHA-1 over 16 KiB, the fragment size of a 256 KiB
 *  object at rate 1/2 with 16 data fragments. */
void
sha1Loop(bench::BenchContext &ctx)
{
    Bytes data(16 << 10);
    for (std::size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<std::uint8_t>(i * 131 + (i >> 8));
    const int iters = ctx.smoke() ? 20 : 5000;
    std::uint8_t sink = 0;
    ctx.beginMeasured();
    for (int i = 0; i < iters; i++) {
        data[0] = sink; // chain the calls so none is hoisted
        sink = Sha1::hash(data)[0];
    }
    ctx.endMeasured();
    ctx.addEvents(static_cast<std::uint64_t>(iters));
    ctx.addBytes(static_cast<std::uint64_t>(iters) * data.size());
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<bench::BenchCase> cases{
        {"compare_block", predicateLoop},
        {"encrypt_block", encryptLoop},
        {"sha1", sha1Loop},
    };
    return bench::runBenchMain(
        argc, argv, "bench_ciphertext_ops", cases,
        [](int argc2, char **argv2) {
            benchmark::Initialize(&argc2, argv2);
            benchmark::RunSpecifiedBenchmarks();
            printInsertTable();
            return 0;
        });
}
