/**
 * @file
 * Figure 4 reproduction: server-side operations on ciphertext.
 *
 * Timings for every predicate and action a replica can run without
 * key material — compare-version/size/block, search, replace/insert/
 * delete/append and search-index replacement — plus a wire-cost
 * table showing that the Figure 4 pointer-block insert ships O(1)
 * bytes while a naive re-upload would re-ship the whole object.
 *
 * Blocks are 256 B here so the timings isolate the server's pointer
 * and hashing work rather than memcpy of large payloads.
 */

#include <algorithm>
#include <string>

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

/** A replica-side object whose search index holds @p tokens words
 *  ("word0 word1 ..."). */
DataObject
searchObject(int tokens)
{
    DataObject obj(handle().guid());
    std::string doc;
    for (int i = 0; i < tokens; i++)
        doc += "word" + std::to_string(i) + " ";
    Update u;
    u.objectGuid = handle().guid();
    UpdateClause clause;
    clause.actions.push_back(
        SetSearchIndex{handle().buildSearchIndex(doc)});
    u.clauses.push_back(clause);
    obj.apply(u);
    return obj;
}

/** The shared timing loop: @p iters calls of @p op (1/200 of that
 *  under --smoke) in the measured region, one event each.  @return
 *  the number of calls made. */
template <typename Op>
int
timed(bench::BenchContext &ctx, int iters, Op op)
{
    if (ctx.smoke())
        iters = std::max(1, iters / 200);
    ctx.beginMeasured();
    for (int i = 0; i < iters; i++)
        op(i);
    ctx.endMeasured();
    ctx.addEvents(static_cast<std::uint64_t>(iters));
    return iters;
}

/** Compute kernel: server-side evaluation of one predicate. */
void
predicateLoop(bench::BenchContext &ctx, const DataObject &obj,
              const Predicate &pred, int iters)
{
    volatile bool sink = false;
    timed(ctx, iters, [&](int) { sink = obj.evaluate(pred); });
    (void)sink;
}

/** Compute kernel: copy a @p blocks-block object and apply one
 *  action (the copy is identical across the action cases, so deltas
 *  between them are the ops).  Insert moves pointers, O(1) physical
 *  work; its growth with size is the copy and index refresh. */
void
applyLoop(bench::BenchContext &ctx, std::size_t blocks, Action action)
{
    const DataObject &base = baseObject(blocks);
    Update u;
    u.objectGuid = handle().guid();
    UpdateClause clause;
    clause.actions.push_back(std::move(action));
    u.clauses.push_back(clause);
    volatile bool sink = false;
    timed(ctx, static_cast<int>(200000 / blocks), [&](int) {
        DataObject obj = base;
        sink = obj.apply(u).committed;
    });
    (void)sink;
}

/** The Figure 4 wire-cost table: one 4 kB block inserted into an
 *  encrypted object vs re-uploading every block. */
void
insertWireTable(bench::BenchContext &ctx)
{
    KeyPair owner = g_registry.generate();
    ObjectHandle h(owner, "wire-cost", 4096);
    for (std::size_t blocks : {16u, 64u, 256u, 1024u}) {
        Update ins = h.makeInsertUpdate(1, Bytes(4096, 0x42),
                                        /*expected_version=*/1,
                                        Timestamp{1, 1});
        std::string k = "_blocks" + std::to_string(blocks);
        ctx.metric("insert_update_b" + k, "B",
                   static_cast<double>(ins.wireSize()));
        ctx.metric("reupload_b" + k, "B",
                   static_cast<double>(blocks * (4096 + 8) + 200));
    }
}

/** Compute kernel: client-side position-dependent block encryption. */
void
encryptLoop(bench::BenchContext &ctx)
{
    Bytes plain(4096, 0x50);
    std::size_t total = 0;
    int iters = timed(ctx, 20000, [&](int i) {
        auto pos = static_cast<std::uint64_t>(i);
        total += handle().encryptBlock(pos, plain).size();
    });
    ctx.addBytes(static_cast<std::uint64_t>(iters) * plain.size());
    ctx.metric("cipher_bytes", "B", static_cast<double>(total));
}

/** Compute kernel: a client read's decrypt at the perfbench
 *  archive_large shape, a 256 KiB object as 16 logical blocks of
 *  16 KiB through ObjectHandle::decryptContent. */
void
decryptContentLoop(bench::BenchContext &ctx)
{
    constexpr std::size_t kBlocks = 16;
    constexpr std::size_t kBlockBytes = 16 << 10;
    std::vector<Bytes> blocks;
    for (std::size_t i = 0; i < kBlocks; i++) {
        Bytes plain(kBlockBytes);
        for (std::size_t j = 0; j < plain.size(); j++)
            plain[j] = static_cast<std::uint8_t>(i * 7 + j * 13);
        Blob cipher = handle().encryptBlock(i, plain);
        blocks.emplace_back(cipher.begin(), cipher.end());
    }
    volatile std::uint8_t sink = 0;
    int iters = timed(ctx, 2000, [&](int) {
        sink = handle().decryptContent(blocks).back();
    });
    (void)sink;
    ctx.addBytes(static_cast<std::uint64_t>(iters) * kBlocks * kBlockBytes);
}

/** Compute kernel: SHA-1 over 16 KiB, the fragment size of a 256 KiB
 *  object at rate 1/2 with 16 data fragments. */
void
sha1Loop(bench::BenchContext &ctx)
{
    Bytes data(16 << 10);
    for (std::size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<std::uint8_t>(i * 131 + (i >> 8));
    std::uint8_t sink = 0;
    int iters = timed(ctx, 5000, [&](int) {
        data[0] = sink; // chain the calls so none is hoisted
        sink = Sha1::hash(data)[0];
    });
    ctx.addBytes(static_cast<std::uint64_t>(iters) * data.size());
}

} // namespace

int
main(int argc, char **argv)
{
    using bench::BenchCase;
    using bench::BenchContext;
    std::vector<BenchCase> cases{
        {"compare_block",
         [](BenchContext &ctx) {
             predicateLoop(ctx, baseObject(64),
                           handle().expectBlock(5, 5, Bytes(kBlock, 0x41)),
                           200000);
         }},
        {"compare_version",
         [](BenchContext &ctx) {
             predicateLoop(ctx, baseObject(64), CompareVersion{1},
                           200000);
         }},
        {"compare_size",
         [](BenchContext &ctx) {
             predicateLoop(ctx, baseObject(64), CompareSize{64}, 200000);
         }},
        {"replace_block",
         [](BenchContext &ctx) {
             applyLoop(ctx, 64,
                       ReplaceBlock{3, handle().encryptBlock(
                                           888, Bytes(kBlock, 0x43))});
         }},
        {"delete_block",
         [](BenchContext &ctx) { applyLoop(ctx, 64, DeleteBlock{3}); }},
        {"append_block",
         [](BenchContext &ctx) {
             applyLoop(ctx, 64, AppendBlock{handle().encryptBlock(
                                    777, Bytes(kBlock, 0x44))});
         }},
        {"set_search_index",
         [](BenchContext &ctx) {
             applyLoop(ctx, 64,
                       SetSearchIndex{handle().buildSearchIndex(
                           "word0 word1 word2 word3")});
         }},
        {"encrypt_block", encryptLoop},
        {"decrypt_content_256k", decryptContentLoop},
        {"sha1", sha1Loop},
        {"insert_wire_table", insertWireTable},
    };
    // Search cost grows with the index; insert with the object copy.
    for (int tokens : {64, 512, 4096}) {
        cases.push_back(
            {"search_" + std::to_string(tokens),
             [tokens](BenchContext &ctx) {
                 SearchPredicate sp;
                 sp.trapdoor = handle().searchTrapdoor("word7");
                 predicateLoop(ctx, searchObject(tokens), sp,
                               500000 / tokens);
             }});
    }
    for (std::size_t blocks : {16u, 256u, 1024u}) {
        cases.push_back(
            {"insert_" + std::to_string(blocks),
             [blocks](BenchContext &ctx) {
                 applyLoop(ctx, blocks,
                           InsertBlock{1, handle().encryptBlock(
                                              999, Bytes(kBlock, 0x42))});
             }});
    }
    return bench::runBenchMain(argc, argv, "bench_ciphertext_ops", cases);
}
