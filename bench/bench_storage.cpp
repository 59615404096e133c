/**
 * @file
 * Durable storage engine throughput (DESIGN.md section 14).
 *
 * Five measurements over the append-only LogStore and its checksum:
 *
 *  - append: sequential put throughput (MB/s) into an unbounded
 *    image, the hot path every fragment store / ulog write rides;
 *  - replay: recovery throughput (MB/s) — constructing a LogStore
 *    over an existing image replays every record through the CRC
 *    check and index build;
 *  - recovery sweep: recovery wall time vs log size, the
 *    restart-latency curve a crashed node pays before it can serve
 *    again;
 *  - restart_small_records: a fragment holder's crash and restart at
 *    the store layer — freeing the index of a 1000-record log, then
 *    replaying it — the part of a server restart that scales with
 *    the number of live keys rather than with log bytes;
 *  - crc32_{64,4k,64k}: CRC-32 throughput (mb_s) at a frame-header,
 *    a page and a fragment-sized input, the kernel under every
 *    append, replay, verified read and threaded frame.
 */

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "runner.h"
#include "storage/disk.h"
#include "storage/log_store.h"
#include "util/crc32.h"
#include "util/random.h"

using namespace oceanstore;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One log's life: append, then recover from the image. */
struct LogRun
{
    double mb = 0.0;       //!< image size
    double appendS = 0.0;  //!< seconds to append every record
    double replayS = 0.0;  //!< seconds to recover (replay + index)
    std::size_t replayedRecords = 0;
    std::size_t keys = 0;  //!< keys the recovered index holds
};

/**
 * Append @p records puts of 1 kB random values, keyed like the
 * archival fragment namespace, into a fresh image (fsync policy off:
 * measure the log), then (with @p replay) construct a LogStore over
 * the image, which replays every record through the CRC check and
 * index build.
 */
LogRun
appendAndReplay(std::size_t records, std::uint64_t seed, bool replay)
{
    DiskImage disk;
    LogRun run;
    {
        LogStoreConfig cfg;
        cfg.syncEachPut = false;
        LogStore store(disk, nullptr, cfg);
        // Values are drawn before the clock starts: the timed loop
        // measures the log, not the generator.
        Rng rng(seed);
        std::vector<Bytes> values(records, Bytes(1024));
        for (Bytes &value : values) {
            for (auto &b : value)
                b = static_cast<std::uint8_t>(rng.next());
        }
        Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < records; i++)
            store.put("frag/" + std::to_string(i), values[i]);
        store.sync();
        run.appendS = secondsSince(t0);
    }
    run.mb = static_cast<double>(disk.size()) / (1024.0 * 1024.0);
    if (!replay)
        return run;
    Clock::time_point t0 = Clock::now();
    LogStore recovered(disk, nullptr);
    run.replayS = secondsSince(t0);
    run.replayedRecords = recovered.recovery().recordsReplayed;
    run.keys = recovered.keyCount();
    return run;
}

double
mbPerS(double mb, double secs)
{
    return secs > 0 ? mb / secs : 0.0;
}

void
appendCase(bench::BenchContext &ctx)
{
    LogRun r = appendAndReplay(ctx.smoke() ? 256 : 16384,
                               ctx.seed(0x57061u), false);
    ctx.metric("append_mb_s", "MB/s", mbPerS(r.mb, r.appendS));
    ctx.metric("log_mb", "MB", r.mb);
}

void
replayCase(bench::BenchContext &ctx)
{
    std::size_t records = ctx.smoke() ? 256 : 16384;
    LogRun r = appendAndReplay(records, ctx.seed(0x57062u), true);
    ctx.metric("replay_mb_s", "MB/s", mbPerS(r.mb, r.replayS));
    ctx.metric("replayed_records", "records",
               static_cast<double>(r.replayedRecords));
    ctx.metric("claim_replay_keeps_keys", "bool", r.keys == records);
}

/**
 * Crash and replay of a fragment holder's log: 1000 records of
 * 60-byte "frag/"-style keys and 350-byte values (about 420 KB), the
 * shape of a serve_small fragment holder.  Each cycle destroys the
 * store (teardown: what NodeStorage::crash() frees) and constructs it
 * over the image again (replay: CRC check plus index build).  Reports
 * the median of each over the repeat's cycles.
 */
void
restartSmallRecordsCase(bench::BenchContext &ctx)
{
    constexpr std::size_t records = 1000;
    DiskImage disk;
    Rng rng(ctx.seed(0x57063u));
    {
        LogStoreConfig cfg;
        cfg.syncEachPut = false;
        LogStore store(disk, nullptr, cfg);
        Bytes value(350);
        for (std::size_t i = 0; i < records; i++) {
            Bytes guid(26);
            for (auto &b : guid)
                b = static_cast<std::uint8_t>(rng.next());
            for (auto &b : value)
                b = static_cast<std::uint8_t>(rng.next());
            const std::size_t index = i % 100;
            store.put("frag/" + hexEncode(guid) + "/" +
                          (index < 10 ? "0" : "") + std::to_string(index),
                      value);
        }
        store.sync();
    }

    const std::size_t cycles = ctx.smoke() ? 3 : 101;
    std::vector<double> teardown, replay;
    auto store = std::make_unique<LogStore>(disk, nullptr);
    bool kept = store->keyCount() == records;
    ctx.beginMeasured();
    for (std::size_t c = 0; c < cycles; c++) {
        Clock::time_point t0 = Clock::now();
        store.reset();
        teardown.push_back(secondsSince(t0));
        t0 = Clock::now();
        store = std::make_unique<LogStore>(disk, nullptr);
        replay.push_back(secondsSince(t0));
        kept &= store->keyCount() == records;
    }
    ctx.endMeasured();
    auto median = [](std::vector<double> &v) {
        std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
        return v[v.size() / 2];
    };
    const double replayS = median(replay);
    ctx.metric("teardown_us", "us", median(teardown) * 1e6);
    ctx.metric("replay_us", "us", replayS * 1e6);
    ctx.metric("replay_records_per_s", "records/s",
               replayS > 0 ? records / replayS : 0.0);
    ctx.metric("log_kb", "KB", static_cast<double>(disk.size()) / 1024.0);
    ctx.metric("claim_replay_keeps_keys", "bool", kept);
}

/**
 * The recovery sweep: append/replay throughput and recovery time vs
 * log size.  Recovery time scales linearly with log bytes: a node's
 * restart latency is the price of its write history, motivating
 * compaction.
 */
void
recoveryTable(bench::BenchContext &ctx)
{
    bool kept = true;
    for (std::size_t records : {1024, 4096, 16384, 65536}) {
        LogRun r = appendAndReplay(records, ctx.seed(0x57060u), true);
        std::string k = "_records" + std::to_string(records);
        ctx.metric("log_mb" + k, "MB", r.mb);
        ctx.metric("append_mb_s" + k, "MB/s", mbPerS(r.mb, r.appendS));
        ctx.metric("replay_mb_s" + k, "MB/s", mbPerS(r.mb, r.replayS));
        ctx.metric("recover_ms" + k, "ms", r.replayS * 1e3);
        kept &= r.keys == records;
    }
    ctx.metric("claim_replay_keeps_keys", "bool", kept);
}

/** Compute kernel: CRC-32 over @p size bytes, 256 MiB per repeat
 *  (1/200 of that under --smoke). */
void
crcLoop(bench::BenchContext &ctx, std::size_t size)
{
    Bytes data(size);
    for (std::size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<std::uint8_t>(i * 131 + (i >> 8));
    std::size_t iters = (std::size_t{256} << 20) / size;
    if (ctx.smoke())
        iters = std::max<std::size_t>(1, iters / 200);
    std::uint32_t sink = 0;
    ctx.beginMeasured();
    for (std::size_t i = 0; i < iters; i++) {
        data[0] = static_cast<std::uint8_t>(sink); // chain the calls
        sink = crc32(data.data(), data.size());
    }
    ctx.endMeasured();
    ctx.addBytes(static_cast<std::uint64_t>(iters) * size);
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<bench::BenchCase> cases{
        {"append", appendCase},
        {"replay", replayCase},
        {"recovery_table", recoveryTable},
        {"restart_small_records", restartSmallRecordsCase},
        {"crc32_64", [](bench::BenchContext &c) { crcLoop(c, 64); }},
        {"crc32_4k", [](bench::BenchContext &c) { crcLoop(c, 4 << 10); }},
        {"crc32_64k",
         [](bench::BenchContext &c) { crcLoop(c, 64 << 10); }}};
    return bench::runBenchMain(argc, argv, "bench_storage", cases);
}
