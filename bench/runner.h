/**
 * @file
 * Shared benchmark harness.
 *
 * Every bench_* binary registers one or more named cases with
 * runBenchMain().  The runner gives all of them the same
 * warmup/repeat/percentile logic and a machine-readable JSON output
 * (schema "oceanstore-bench-v1") that scripts/bench.sh aggregates
 * into BENCH_oceanstore.json, so the repo accumulates a performance
 * trajectory across PRs instead of eleven incomparable stdout tables.
 *
 * Each case additionally records the MetricsRegistry counter deltas
 * accumulated over its measured repeats (warmup excluded) as a
 * "counters" object next to "metrics" in the JSON — so a latency
 * regression can be cross-read against what the system actually did
 * (messages sent, retries, view changes, ...).  A case whose repeats
 * fired wall-clock-paced events (runtime.tasks moved) exports them as
 * "wall_counters" instead: those counts vary between runs of one
 * commit, so only "counters" are exact regression guards.
 *
 * Paper tables are registered cases too: their metrics are the
 * table's cells, and each check the paper makes is a "claim_*" metric
 * (1 holds, 0 fails) that scripts/validate_bench_json.py gates on.
 *
 * Modes (mutually composable flags; anything else is an error):
 *   --bench        run registered cases, print a human summary (the
 *                  default when no flag is given)
 *   --json PATH    run cases, write the JSON document to PATH
 *   --smoke        tiny configs, 1 repeat, 0 warmup (ctest smoke gate)
 *   --repeats N    measured repetitions per case (default 5)
 *   --warmup N     discarded warmup repetitions per case (default 1)
 *   --filter SUB   only run cases whose name contains SUB
 *   --seed N       override each case's built-in base seed (0 = keep)
 *   --list         print case names and exit
 */

#ifndef OCEANSTORE_BENCH_RUNNER_H
#define OCEANSTORE_BENCH_RUNNER_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace oceanstore {
namespace bench {

/**
 * Per-repeat recording surface handed to each case body.
 *
 * The runner measures wall time automatically; a case additionally
 * calls addEvents() with Simulator::eventsExecuted() deltas so the
 * runner can derive simulator event-loop throughput, and metric() for
 * domain measurements (latencies, bytes, hit rates, ...).
 */
class BenchContext
{
  public:
    /** True when running under --smoke: use the smallest config. */
    bool smoke() const { return smoke_; }

    /**
     * Base seed for this case's deterministic configs: the --seed
     * override when given, otherwise @p fallback (the case's
     * built-in default, keeping historical runs comparable).
     */
    std::uint64_t
    seed(std::uint64_t fallback) const
    {
        return seed_ != 0 ? seed_ : fallback;
    }

    /** Record a domain metric sample for this repeat. */
    void metric(const std::string &name, const std::string &unit,
                double value);

    /**
     * Count simulator events executed during this repeat; the runner
     * derives an "events_per_sec" metric from the total and the
     * measured wall time.
     */
    void addEvents(std::uint64_t n) { events_ += n; }

    /**
     * Count payload bytes processed during this repeat; the runner
     * derives an "mb_s" metric (10^6 bytes per second of measured
     * time), the layer throughput of a data-plane case.
     */
    void addBytes(std::uint64_t n) { bytes_ += n; }

    /**
     * Mark the start/end of the measured region.  Setup work (tier
     * construction, key generation) outside the region is excluded
     * from the throughput denominator; wall_ms still covers the whole
     * repeat.  Multiple begin/end pairs accumulate.  Without any
     * region, the full repeat wall time is used.
     */
    void beginMeasured();
    void endMeasured();

  private:
    friend class Runner;
    bool smoke_ = false;
    std::uint64_t seed_ = 0;
    std::uint64_t events_ = 0;
    std::uint64_t bytes_ = 0;
    double measured_ = 0.0;
    bool inRegion_ = false;
    std::chrono::steady_clock::time_point regionStart_;
    std::vector<std::pair<std::string, std::pair<std::string, double>>>
        metrics_;
};

/** One registered benchmark case. */
struct BenchCase
{
    std::string name;
    std::function<void(BenchContext &)> fn;
};

/** Aggregated statistics for one metric across repeats. */
struct MetricStats
{
    std::string unit;
    std::size_t repeats = 0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
};

/** Parsed runner options (exposed for tests). */
struct RunnerOptions
{
    bool smoke = false;
    bool list = false;
    int repeats = 5;
    int warmup = 1;
    std::uint64_t seed = 0; //!< 0 = keep each case's built-in seed.
    std::string jsonPath;
    std::string filter;
};

/**
 * Parse runner flags out of argv.  @return options; sets @p error_out
 * (if non-null) on an unknown flag, a missing value or a non-numeric
 * count.
 */
RunnerOptions parseRunnerArgs(int argc, char **argv,
                              std::string *error_out = nullptr);

/**
 * Entry point every bench binary delegates its main() to.
 *
 * @param suite   bench binary name, e.g. "bench_dissemination"
 * @param cases   registered cases
 * @return process exit code (2 on bad flags)
 */
int runBenchMain(int argc, char **argv, const std::string &suite,
                 const std::vector<BenchCase> &cases);

} // namespace bench
} // namespace oceanstore

#endif // OCEANSTORE_BENCH_RUNNER_H
