/**
 * @file
 * Shared pieces of the OceanStore end-to-end benchmark (osbench).
 *
 * The benchmark drives the public core::Universe API the way an
 * OceanStore client would: it signs and encrypts updates, reads
 * objects back through the two-tier locator and restores archival
 * versions, checking every byte it gets back against a content model
 * whose plaintext is a pure function of (object, version).
 *
 * Nothing here reaches into the system's internals: per-layer numbers
 * come from the process-wide MetricsRegistry, the ambient Tracer and
 * PhaseProfiler, and from timing calls into each module's public
 * functions on the run's own inputs (probes.cc).
 */

#ifndef OSBENCH_BENCH_H
#define OSBENCH_BENCH_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/object_handle.h"
#include "core/universe.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace osbench {

using oceanstore::Bytes;
using oceanstore::VersionNum;

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Flip one byte of every expected payload (self-test of the
     *  output check: the run must then exit non-zero). */
    bool corruptExpected = false;
};

/** Where traced runs write their span dumps (under the working
 *  directory, the checkout root). */
inline const char *const spanDumpDir = ".bench_out";

/** Steady-clock seconds since an arbitrary epoch. */
double wallNow();

/** Percentile @p p in [0, 100] by linear interpolation between
 *  closest ranks; 0 when @p v is empty. */
double percentile(std::vector<double> v, double p);

/** Median of @p v (0 when empty). */
inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

/** Windows a measured phase is split into for its throughput. */
constexpr unsigned rateWindows = 10;

/**
 * Throughput as the median, over @p windows equal slices of the wall
 * interval [t0, t1), of completions per second.  @p done_at holds the
 * wall time of each verified completion.  The median keeps a second of
 * machine slowdown from moving the whole run's figure.
 */
double windowedRate(const std::vector<double> &done_at, double t0,
                    double t1, unsigned windows);

/** Peak resident set size of this process so far, MiB (VmHWM). */
double peakRssMb();

/** SplitMix64 finalizer: a cheap, well-mixed pure hash. */
std::uint64_t mix64(std::uint64_t x);

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** What one workload run produced. */
struct RunResult
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Extra human-readable lines (not part of the JSON result). */
    std::vector<Metric> extra;

    void
    add(const std::string &name, const std::string &unit, double v)
    {
        metrics.push_back({name, unit, v});
    }

    void
    note(const std::string &name, const std::string &unit, double v)
    {
        extra.push_back({name, unit, v});
    }
};

/**
 * The shape of one object's life: an initial append of
 * @p initialBytes, then single-block updates of @p updateBytes, each
 * an append with probability @p appendFrac and otherwise a replace of
 * one existing block.  @p blockBytes is the client's logical block
 * size, so the initial content spans initialBytes / blockBytes blocks.
 */
struct ObjectShape
{
    std::size_t initialBytes = 1024;
    std::size_t blockBytes = 256;
    std::size_t updateBytes = 256;
    double appendFrac = 0.5;
    /** Writes an object takes before it is retired (version cap). */
    unsigned writeCap = 24;
};

/**
 * Client-side plaintext model of one object.  The update producing
 * version v, and hence the content at every version, is a pure
 * function of (key, v): any version a read or restore returns can be
 * checked without trusting the system's bookkeeping.
 */
class ContentModel
{
  public:
    ContentModel(std::uint64_t key, const ObjectShape &shape,
                 bool corrupt);

    /** The step that turns version v-1 into v (v >= 1). */
    struct Step
    {
        bool append = true;
        std::size_t position = 0; //!< Replaced block (replace only).
        Bytes plain;
    };
    Step step(VersionNum v);

    /** Expected plaintext at version @p v (extends the model lazily). */
    Bytes expected(VersionNum v);

    /** Plaintext bytes at version @p v. */
    std::size_t sizeAt(VersionNum v);

  private:
    using Block = std::shared_ptr<const Bytes>;
    void extendTo(VersionNum v);

    std::uint64_t key_;
    ObjectShape shape_;
    bool corrupt_;
    /** history_[v] = logical plaintext blocks at version v. */
    std::vector<std::vector<Block>> history_;
};

/** Build the signed, encrypted update for @p step on @p handle. */
oceanstore::Update makeUpdate(const oceanstore::ObjectHandle &handle,
                              const ContentModel::Step &step,
                              VersionNum expected_version,
                              oceanstore::Timestamp ts);

/**
 * Decode an archival snapshot (DataObject::serializeState bytes) back
 * into its logical ciphertext blocks.  @return false when the bytes do
 * not parse or name another object.
 */
bool parseArchivedState(const Bytes &state, const oceanstore::Guid &obj,
                        VersionNum &version,
                        std::vector<Bytes> &logical_blocks);

/**
 * The server the @p i-th crash/restart cycle takes down: a fixed
 * stride over the servers, the same for every seed (restart cost
 * depends on the victim's log, so a seeded choice would only add
 * spread).  The archival dispersal origin (the server nearest the
 * primary tier at the centre) is never chosen: archive-on-commit sends
 * every fragment from there, so while it is down each commit's archive
 * is silently lost.
 */
std::size_t crashVictim(oceanstore::Universe &universe, unsigned i);

/** Per-client timing samples of client-side crypto (microseconds). */
struct CryptoSamples
{
    std::vector<double> encryptSignUs;
    std::vector<double> decryptUs;
    double totalSeconds = 0.0;
};

/** Inputs the layer probes replay, gathered while the workload ran. */
struct ProbeInputs
{
    std::size_t cipherBlockBytes = 0;
    std::size_t updateWireBytes = 0;      //!< Mean serialized update.
    std::vector<Bytes> archivedStates;    //!< Restored snapshots.
    /** Data fragments treated as lost in the decode probe. */
    unsigned lostDataFragments = 0;
    std::vector<oceanstore::Guid> sampleObjects; //!< For archiveObject.
    std::size_t restartedServer = 0;
    std::vector<std::pair<double, double>> serverPositions;
};

/** Counters and clocks of one measured phase, for per-layer ratios. */
struct PhaseCounts
{
    double wall = 0.0;
    /** Verified ops per wall second (windowedRate over the phase). */
    double opsPerS = 0.0;
    std::uint64_t ops = 0;
    std::uint64_t writes = 0;
    std::uint64_t reads = 0;
    std::uint64_t restores = 0;
    std::uint64_t restarts = 0;
    std::uint64_t staleReads = 0;
    std::uint64_t userBytesWritten = 0;
    unsigned clientThreads = 1;
    double workerUtilization = 0.0;
    CryptoSamples crypto;
    oceanstore::MetricsSnapshot delta;
};

/** Disk bytes across every server's and primary replica's durable
 *  image (read on the runtime strand). */
double storedBytes(oceanstore::Universe &universe);

/** Per-layer metrics of a traced run (probes.cc). */
void addLayerMetrics(RunResult &out, oceanstore::Universe &universe,
                     const PhaseCounts &traced, double untraced_ops_per_s,
                     std::size_t spans, const ProbeInputs &in);

/** Write the tracer's spans, a per-name self-time summary and the
 *  profiler's phase table to @p path as JSON lines. */
void dumpSpans(const oceanstore::Tracer &tracer,
               const oceanstore::PhaseProfiler &profiler,
               const std::string &path);

/** Workload entry points. */
RunResult runServeSmall(const Options &opt);
RunResult runArchiveLarge(const Options &opt);
RunResult runGeoSim(const Options &opt);

} // namespace osbench

#endif // OSBENCH_BENCH_H
