/**
 * @file
 * Per-layer metrics of a traced run.
 *
 * Three sources, all outside src/:
 *  - deltas of the process-wide MetricsRegistry over the measured
 *    phase (counts per op, histogram percentiles);
 *  - the client's own timings of the calls it makes into the crypto
 *    layer (ObjectHandle::make*Update, decryptContent);
 *  - probes that time one module's public functions on the run's own
 *    inputs: BlockCipher::encrypt (the keystream XOR) and Sha1 on
 *    the workload's block and fragment sizes,
 *    fragmentObject/reassembleObject on the states
 *    the run archived, LogStore replay/append on a copy of a restarted
 *    server's disk image, encodeFrame/decodeFrame on the run's mean
 *    message size, a standalone PbftCluster and SecondaryTier on the
 *    sim runtime fed updates of the run's mean size, and
 *    Universe::archiveObject on objects the run wrote.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include "bench.h"
#include "consistency/byzantine.h"
#include "consistency/secondary.h"
#include "crypto/block_cipher.h"
#include "crypto/sha1.h"
#include "erasure/fragment.h"
#include "erasure/reed_solomon.h"
#include "runtime/framing.h"
#include "runtime/sim_runtime.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "storage/log_store.h"

namespace osbench {

using namespace oceanstore;

namespace {

/** Minimum wall time each probe loop runs for. */
constexpr double probeSeconds = 0.15;

double
counter(const MetricsSnapshot &d, const char *name)
{
    auto it = d.counters.find(name);
    return it == d.counters.end() ? 0.0 : static_cast<double>(it->second);
}

double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

/** Percentile of a fixed-bucket histogram delta, interpolated within
 *  the bucket (under/overflow clamp to the range ends). */
double
histPercentile(const MetricsSnapshot &d, const char *name, double p)
{
    auto it = d.histograms.find(name);
    if (it == d.histograms.end() || it->second.total == 0)
        return 0.0;
    const MetricsSnapshot::Hist &h = it->second;
    std::size_t inner = h.bins.size() - 2;
    double width = (h.hi - h.lo) / static_cast<double>(inner);
    double target = p / 100.0 * static_cast<double>(h.total);
    double seen = 0.0;
    for (std::size_t b = 0; b < h.bins.size(); b++) {
        double n = static_cast<double>(h.bins[b]);
        if (n > 0.0 && seen + n >= target) {
            if (b == 0)
                return h.lo;
            if (b == h.bins.size() - 1)
                return h.hi;
            double lo = h.lo + width * static_cast<double>(b - 1);
            return lo + width * (target - seen) / n;
        }
        seen += n;
    }
    return h.hi;
}

/** Run @p body until probeSeconds have passed; @return seconds/call. */
template <typename F>
double
timePerCall(F &&body)
{
    std::size_t calls = 0;
    double t0 = wallNow();
    double t = t0;
    while (t - t0 < probeSeconds || calls < 3) {
        body();
        calls++;
        t = wallNow();
    }
    return (t - t0) / static_cast<double>(calls);
}

Bytes
filler(std::size_t n, std::uint64_t seed)
{
    Bytes b(n);
    std::uint64_t x = seed;
    for (std::size_t i = 0; i < n; i++) {
        if (i % 8 == 0)
            x = mix64(x);
        b[i] = static_cast<std::uint8_t>(x >> (8 * (i % 8)));
    }
    return b;
}

struct ErasureProbe
{
    double encodeMbS = 0.0, decodeMbS = 0.0;
    double encodeSecPerState = 0.0, decodeSecPerState = 0.0;
    double fragmentBytes = 0.0;
};

ErasureProbe
probeErasure(const ProbeInputs &in)
{
    ErasureProbe ep;
    std::vector<Bytes> states = in.archivedStates;
    if (states.empty())
        states.push_back(filler(4096, 1));
    const UniverseConfig shape; // the benchmark's archival geometry
    const unsigned k = shape.archiveDataFragments;
    ReedSolomonCode code(k, shape.archiveTotalFragments);
    double bytes = 0.0, enc = 0.0, dec = 0.0;
    for (const Bytes &s : states) {
        FragmentSet set;
        enc += timePerCall([&] { set = fragmentObject(code, s); });
        // Lose the first lostDataFragments data fragments; decode from
        // the next k fragments, parity included.
        auto first = set.fragments.begin() + in.lostDataFragments;
        std::vector<Fragment> avail(first, first + k);
        std::optional<Bytes> out;
        dec += timePerCall([&] {
            out = reassembleObject(code, set.archiveGuid, set.originalSize,
                                   avail);
        });
        if (!out || *out != s) {
            std::fprintf(stderr, "osbench: erasure probe decode mismatch\n");
            std::exit(3);
        }
        bytes += static_cast<double>(s.size());
        ep.fragmentBytes += static_cast<double>(set.fragments[0].data.size());
    }
    double n = static_cast<double>(states.size());
    ep.encodeMbS = bytes / enc / 1e6;
    ep.decodeMbS = bytes / dec / 1e6;
    ep.encodeSecPerState = enc / n;
    ep.decodeSecPerState = dec / n;
    ep.fragmentBytes /= n;
    return ep;
}

struct StorageProbe
{
    double appendMbS = 0.0, replayMbS = 0.0;
};

/** Replay a copy of @p image into a LogStore, then append every live
 *  record into a fresh log. */
StorageProbe
probeStorage(const DiskImage &image)
{
    StorageProbe sp;
    double bytes = static_cast<double>(image.size());
    std::vector<std::pair<std::string, Bytes>> records;
    double replay = timePerCall([&] {
        DiskImage copy = image;
        LogStore store(copy, nullptr);
        if (records.empty())
            store.scan("", [&](const std::string &k, const Bytes &v) {
                records.emplace_back(k, v);
            });
    });
    double appended = 0.0;
    for (const auto &[k, v] : records)
        appended += static_cast<double>(k.size() + v.size());
    double append = timePerCall([&] {
        DiskImage fresh;
        LogStore store(fresh, nullptr);
        for (const auto &[k, v] : records)
            store.put(k, v);
    });
    sp.replayMbS = ratio(bytes, replay) / 1e6;
    sp.appendMbS = ratio(appended, append) / 1e6;
    return sp;
}

double
probeFrames(double msg_bytes)
{
    Message m;
    m.type = "pbft.prepare";
    m.wireSize = static_cast<std::size_t>(msg_bytes);
    m.src = 3;
    m.nonce = 0x1234;
    std::size_t frame_bytes = 0;
    double per = timePerCall([&] {
        for (int i = 0; i < 256; i++) {
            Bytes f = encodeFrame(m);
            auto h = decodeFrame(f);
            if (!h)
                std::abort();
            frame_bytes = f.size();
        }
    });
    return 256.0 * static_cast<double>(frame_bytes) / per / 1e6;
}

struct PbftProbe
{
    double usPerWrite = 0.0;
    double msgsPerWrite = 0.0;
};

/** A standalone 4-replica PBFT cluster on the sim runtime, committing
 *  opaque commands of the run's mean update size one at a time. */
PbftProbe
probePbft(std::size_t update_bytes, std::uint64_t seed)
{
    Simulator sim;
    Network net(sim);
    SimRuntime rt(sim, net, seed);
    KeyRegistry registry(seed);
    std::vector<std::pair<double, double>> pos;
    for (unsigned r = 0; r < 4; r++) {
        double a = 2.0 * 3.14159265358979 * r / 4;
        pos.emplace_back(0.5 + 0.04 * std::cos(a), 0.5 + 0.04 * std::sin(a));
    }
    PbftCluster cluster(rt, pos, registry);
    cluster.executor = [](unsigned, const Bytes &, std::uint64_t) {
        return Bytes(9, 1);
    };
    auto client = cluster.makeClient(0.5, 0.5, 1);
    std::uint64_t n = 0;
    std::uint64_t msgs0 = rt.totalMessages();
    double per = timePerCall([&] {
        bool done = false;
        client->submit(filler(update_bytes, ++n),
                       [&](const PbftOutcome &) { done = true; });
        rt.runUntil([&] { return done; }, rt.now() + 600.0);
    });
    PbftProbe pp;
    pp.usPerWrite = per * 1e6;
    pp.msgsPerWrite =
        ratio(static_cast<double>(rt.totalMessages() - msgs0),
              static_cast<double>(n));
    return pp;
}

/** A standalone secondary tier over the run's server positions: inject
 *  committed updates of the run's size and let the dissemination tree
 *  deliver them everywhere. */
double
probeSecondary(const ProbeInputs &in, std::size_t update_bytes,
               std::uint64_t seed)
{
    Simulator sim;
    Network net(sim);
    SimRuntime rt(sim, net, seed);
    SecondaryTier tier(rt, in.serverPositions);
    KeyRegistry registry(seed);
    KeyPair owner = registry.generate();
    ObjectHandle handle(owner, "probe/secondary", 4096);
    std::size_t payload = std::max<std::size_t>(
        64, std::min<std::size_t>(update_bytes, 4096));
    VersionNum v = 0;
    double per = timePerCall([&] {
        Update u = handle.makeAppendUpdate(filler(payload, v + 1), v,
                                           Timestamp{v + 1, 1});
        v++;
        tier.injectCommitted(u, v);
        sim.runUntil(sim.now() + 5.0);
    });
    if (!tier.allCommitted(handle.guid(), v)) {
        std::fprintf(stderr, "osbench: secondary probe did not converge\n");
        std::exit(3);
    }
    // The probe's own client-side update construction is excluded.
    Update u = handle.makeAppendUpdate(filler(payload, 1), 0, Timestamp{});
    double build = timePerCall([&] {
        u = handle.makeAppendUpdate(filler(payload, 1), 0, Timestamp{});
    });
    return std::max(0.0, per - build) * 1e6;
}

} // namespace

void
addLayerMetrics(RunResult &out, Universe &universe, const PhaseCounts &pc,
                double untraced_ops_per_s, std::size_t spans,
                const ProbeInputs &in)
{
    const MetricsSnapshot &d = pc.delta;
    double ops = static_cast<double>(pc.ops);
    double writes = static_cast<double>(pc.writes);
    std::uint64_t seed = mix64(in.updateWireBytes + 17);

    // crypto
    out.add("crypto.client_encrypt_sign_us_p50", "us",
            median(pc.crypto.encryptSignUs));
    out.add("crypto.client_decrypt_us_p50", "us",
            median(pc.crypto.decryptUs));
    {
        std::size_t n = std::max<std::size_t>(in.cipherBlockBytes, 64);
        BlockCipher cipher(filler(16, 7));
        Bytes block = filler(n, 9);
        double per = timePerCall([&] { cipher.encrypt(3, block); });
        out.add("crypto.cipher_mb_s", "MB/s", n / per / 1e6);
    }
    ErasureProbe ep = probeErasure(in);
    {
        std::size_t n = std::max<std::size_t>(
            static_cast<std::size_t>(ep.fragmentBytes), 64);
        Bytes frag = filler(n, 11);
        double per = timePerCall([&] { Sha1::hash(frag); });
        out.add("crypto.sha1_mb_s", "MB/s", n / per / 1e6);
    }
    out.add("crypto.share", "frac",
            ratio(pc.crypto.totalSeconds, pc.wall * pc.clientThreads));

    // erasure
    out.add("erasure.encode_mb_s", "MB/s", ep.encodeMbS);
    out.add("erasure.decode_mb_s", "MB/s", ep.decodeMbS);
    out.add("erasure.share", "frac",
            ratio(ep.encodeSecPerState * counter(d, "archive.disperses") +
                      ep.decodeSecPerState *
                          counter(d, "archive.reconstructs_succeeded"),
                  pc.wall));

    // storage
    DiskImage image;
    universe.rt().execute(
        [&] { image = universe.storageOf(in.restartedServer).disk(); });
    StorageProbe sp = probeStorage(image);
    out.add("storage.append_mb_s", "MB/s", sp.appendMbS);
    out.add("storage.replay_mb_s", "MB/s", sp.replayMbS);
    out.add("storage.write_amp", "ratio",
            ratio(counter(d, "storage.bytes_written"),
                  static_cast<double>(pc.userBytesWritten)));
    out.add("storage.syncs_per_write", "count",
            ratio(counter(d, "storage.syncs"), writes));
    out.add("recovery.records_per_restart", "count",
            ratio(counter(d, "recovery.records"),
                  static_cast<double>(pc.restarts)));

    // runtime
    // The existing runtime.task_delay histogram has 50 ms buckets, too
    // coarse for sub-millisecond delays, so its exact sum/count mean is
    // reported along with the share of tasks that waited past the
    // first bucket.
    {
        auto it = d.histograms.find("runtime.task_delay");
        double n = 0.0, sum = 0.0, late = 0.0;
        if (it != d.histograms.end()) {
            n = static_cast<double>(it->second.total);
            sum = it->second.sum;
            for (std::size_t b = 2; b < it->second.bins.size(); b++)
                late += static_cast<double>(it->second.bins[b]);
        }
        out.add("runtime.task_delay_mean_us", "us", ratio(sum, n) * 1e6);
        out.add("runtime.task_delay_late_frac", "frac", ratio(late, n));
    }
    out.add("runtime.tasks_per_op", "count",
            ratio(counter(d, "runtime.tasks"), ops));
    out.add("runtime.timers_fired_per_op", "count",
            ratio(counter(d, "runtime.timers_fired"), ops));
    out.add("runtime.worker_utilization", "frac", pc.workerUtilization);
    out.add("runtime.frame_bytes_per_op", "B",
            ratio(counter(d, "runtime.frame_bytes"), ops));
    double msgs = counter(d, "net.sends") + counter(d, "runtime.sends");
    double bytes = counter(d, "net.bytes") + counter(d, "runtime.bytes");
    out.add("runtime.frame_mb_s", "MB/s", probeFrames(ratio(bytes, msgs)));

    // sim + network model
    double events = counter(d, "sim.events_fired");
    out.add("sim.events_per_op", "count", ratio(events, ops));
    out.add("sim.events_per_s", "1/s", ratio(events, pc.wall));
    out.add("sim.cancelled_frac", "frac",
            ratio(counter(d, "sim.events_cancelled"),
                  counter(d, "sim.events_scheduled")));
    out.add("net.msgs_per_op", "count", ratio(msgs, ops));
    out.add("net.bytes_per_op", "B", ratio(bytes, ops));

    // consistency
    std::size_t upd = std::max<std::size_t>(in.updateWireBytes, 64);
    PbftProbe pp = probePbft(upd, seed);
    out.add("pbft.self_us_per_write", "us", pp.usPerWrite);
    out.add("sec.self_us_per_write", "us", probeSecondary(in, upd, seed));
    out.add("pbft.msgs_per_write", "count", pp.msgsPerWrite);
    out.add("pbft.retries_per_write", "count",
            ratio(counter(d, "pbft.client_retries") +
                      counter(d, "pbft.commit_retransmits") +
                      counter(d, "pbft.preprepare_retransmits"),
                  writes));
    out.add("sec.pushes_per_write", "count",
            ratio(counter(d, "sec.pushes"), writes));
    out.add("sec.stale_read_frac", "frac",
            ratio(static_cast<double>(pc.staleReads),
                  static_cast<double>(pc.reads)));

    // archive
    std::vector<double> disperse;
    for (const Guid &g : in.sampleObjects) {
        double t0 = wallNow();
        universe.archiveObject(g);
        disperse.push_back((wallNow() - t0) * 1e3);
    }
    out.add("archive.disperse_ms_p50", "ms", median(disperse));
    out.add("archive.fragment_requests_per_restore", "count",
            ratio(counter(d, "archive.fragment_requests"),
                  static_cast<double>(pc.restores)));
    out.add("archive.restore_success_frac", "frac",
            ratio(counter(d, "archive.reconstructs_succeeded"),
                  counter(d, "archive.reconstructs")));

    // location
    out.add("bloom.hit_frac", "frac",
            ratio(counter(d, "bloom.hits"), counter(d, "bloom.queries")));
    out.add("bloom.query_hops_p50", "count",
            histPercentile(d, "bloom.query_hops", 50));
    out.add("plaxton.lookup_hops_p50", "count",
            histPercentile(d, "plaxton.lookup_hops", 50));
    out.add("plaxton.lookups_failed_frac", "frac",
            ratio(counter(d, "plaxton.lookups_failed"),
                  counter(d, "plaxton.lookups")));
    out.add("core.read_mesh_frac", "frac",
            ratio(counter(d, "core.read_mesh_hits"), counter(d, "core.reads")));

    // observability
    out.add("obs.trace_overhead_frac", "frac",
            ratio(untraced_ops_per_s - pc.opsPerS, untraced_ops_per_s));
    out.add("obs.spans_per_op", "count",
            ratio(static_cast<double>(spans), ops));
}

void
dumpSpans(const Tracer &tracer, const PhaseProfiler &profiler,
          const std::string &path)
{
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), ec);
    std::ofstream out(path);
    if (!out)
        return;
    std::vector<SpanRecord> spans = tracer.buffer().snapshot();
    std::vector<std::string> names = tracer.strings();
    auto str = [&](std::uint32_t id) -> const std::string & {
        static const std::string none = "?";
        return id < names.size() ? names[id] : none;
    };

    // Self time of a local span: its duration minus what its children
    // cover (clipped to the parent's interval, overlaps merged).  A
    // send span's duration is modeled wire time, summed separately.
    std::map<std::uint32_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); i++)
        index[spans[i].spanId] = i;
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const SpanRecord &s : spans) {
        auto it = index.find(s.parent);
        if (s.parent != 0 && it != index.end())
            kids[it->second].emplace_back(s.start, s.end);
    }
    struct Summary
    {
        std::uint64_t count = 0;
        double total = 0.0, self = 0.0, wire = 0.0;
    };
    std::map<std::string, Summary> by_name;
    for (std::size_t i = 0; i < spans.size(); i++) {
        const SpanRecord &s = spans[i];
        double dur = std::max(0.0, s.end - s.start);
        auto &k = kids[i];
        std::sort(k.begin(), k.end());
        double covered = 0.0, reach = s.start;
        for (auto [a, b] : k) {
            a = std::max(a, reach);
            b = std::min(b, s.end);
            if (b > a) {
                covered += b - a;
                reach = b;
            }
        }
        Summary &sum = by_name[str(s.name)];
        sum.count++;
        if (s.kind == SpanKind::Local) {
            sum.total += dur;
            sum.self += std::max(0.0, dur - covered);
        } else {
            sum.wire += dur;
        }
    }
    char buf[512];
    for (const auto &[name, sum] : by_name) {
        std::snprintf(buf, sizeof buf,
                      "{\"summary\":\"%s\",\"count\":%llu,"
                      "\"total_s\":%.9g,\"self_s\":%.9g,\"wire_s\":%.9g}\n",
                      name.c_str(),
                      static_cast<unsigned long long>(sum.count), sum.total,
                      sum.self, sum.wire);
        out << buf;
    }
    for (const auto &ph : profiler.stats()) {
        std::snprintf(buf, sizeof buf,
                      "{\"phase\":\"%s\",\"events\":%llu,\"delay_s\":%.9g}\n",
                      ph.name.c_str(),
                      static_cast<unsigned long long>(ph.events), ph.delay);
        out << buf;
    }
    // Raw spans, capped so a dump stays a few megabytes.
    constexpr std::size_t maxSpans = 50000;
    for (std::size_t i = 0; i < spans.size() && i < maxSpans; i++) {
        const SpanRecord &s = spans[i];
        std::snprintf(buf, sizeof buf,
                      "{\"id\":%u,\"parent\":%u,\"trace\":%llu,"
                      "\"comp\":\"%s\",\"name\":\"%s\",\"kind\":%u,"
                      "\"node\":%u,\"peer\":%u,\"bytes\":%u,"
                      "\"start\":%.9f,\"end\":%.9f}\n",
                      s.spanId, s.parent,
                      static_cast<unsigned long long>(s.traceId),
                      str(s.component).c_str(), str(s.name).c_str(),
                      static_cast<unsigned>(s.kind), s.node, s.peer, s.bytes,
                      s.start, s.end);
        out << buf;
    }
}

} // namespace osbench
