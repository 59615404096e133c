/**
 * @file
 * Process-wide metrics registry (observability layer).
 *
 * Named counters, gauges and histograms with interned ids: a
 * subsystem registers each metric once (string lookup, O(log n)) and
 * thereafter increments through a dense integer id — a single
 * relaxed atomic add on the hot path, cheap enough to stay always-on
 * in the simulator event loop and race-free under a paced Runtime's
 * threads.  Names follow the `component.event` scheme (DESIGN.md
 * section 11): `sim.events_fired`, `net.drops`, `pbft.view_changes`,
 * `plaxton.lookup_hops`, ...
 *
 * Snapshots are value copies keyed by name (sorted, so the JSON
 * rendering is deterministic); deltaFrom() subtracts a "before"
 * snapshot to isolate one bench repeat or one chaos seed.  The bench
 * runner embeds such deltas next to p50/p95 in its JSON output.
 *
 * The registry is process-wide (MetricsRegistry::global()) because
 * metric identity is program-wide: two scenarios bumping
 * `net.sends` mean the same thing.  Tests that need isolation take
 * a snapshot before and diff after.
 *
 * Thread contract (DESIGN.md section 12): values live in
 * fixed-capacity arrays of atomics, so the hot-path inc()/set()/
 * observe() are lock-free relaxed operations — no mutex, no
 * reallocation, valid from any thread.  Registration and the name
 * maps stay behind mu_; handing an id from the registering thread to
 * an updating thread is the caller's synchronization point.
 * Snapshots use relaxed loads: each value is exact, cross-metric
 * tearing is possible mid-run and absent when quiescent.
 */

#ifndef OCEANSTORE_OBS_METRICS_H
#define OCEANSTORE_OBS_METRICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/mutex.h"

namespace oceanstore {

/**
 * Value-copy of every registered metric, keyed by name.  Maps keep
 * the keys sorted, making snapshot rendering deterministic.
 */
struct MetricsSnapshot
{
    /** Fixed-bucket histogram contents. */
    struct Hist
    {
        double lo = 0.0;
        double hi = 0.0;
        std::vector<std::uint64_t> bins; //!< size = bins + 2 (under/over).
        std::uint64_t total = 0;
        double sum = 0.0;
    };

    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, Hist> histograms;

    /**
     * The change since @p before: counters and histogram bins are
     * subtracted (metrics absent from @p before pass through whole),
     * gauges keep their current value (they are levels, not totals).
     * Zero-delta counters and empty-delta histograms are omitted.
     */
    MetricsSnapshot deltaFrom(const MetricsSnapshot &before) const;

    /** Render as a deterministic JSON object (sorted keys, fixed
     *  number formatting). */
    void writeJson(std::ostream &out) const;

    /** writeJson into a string. */
    std::string toJson() const;
};

/**
 * The registry.  Counter, gauge and histogram ids are separate dense
 * id spaces; re-registering a name returns the existing id (and
 * aborts if the name is already claimed by a different metric kind).
 * Each id space has a fixed capacity (kMaxCounters/kMaxGauges/
 * kMaxHistograms) so the value arrays never reallocate under
 * concurrent updates; registration past capacity aborts.
 */
class MetricsRegistry
{
  public:
    using Id = std::uint32_t;

    static constexpr std::size_t kMaxCounters = 1024;
    static constexpr std::size_t kMaxGauges = 512;
    static constexpr std::size_t kMaxHistograms = 128;

    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** The process-wide instance used by all subsystems. */
    static MetricsRegistry &global();

    /** Register (or look up) a monotonic counter. */
    Id counter(const std::string &name) OS_EXCLUDES(mu_);

    /** Register (or look up) a last-value gauge. */
    Id gauge(const std::string &name) OS_EXCLUDES(mu_);

    /**
     * Register (or look up) a fixed-bucket histogram over [lo, hi)
     * with @p bins equal-width buckets plus underflow/overflow.
     */
    Id histogram(const std::string &name, double lo, double hi,
                 std::size_t bins) OS_EXCLUDES(mu_);

    /** Lock-free hot-path updates (relaxed atomics; any thread). */
    void
    inc(Id id, std::uint64_t delta = 1)
    {
        counters_[id].fetch_add(delta, std::memory_order_relaxed);
    }

    void
    set(Id id, double value)
    {
        gauges_[id].store(value, std::memory_order_relaxed);
    }

    void
    add(Id id, double delta)
    {
        gauges_[id].fetch_add(delta, std::memory_order_relaxed);
    }

    void observe(Id id, double value);

    /** Read-back by name; zero-value when not registered. */
    std::uint64_t counterValue(const std::string &name) const
        OS_EXCLUDES(mu_);
    double gaugeValue(const std::string &name) const OS_EXCLUDES(mu_);

    /** Copy every metric's current value. */
    MetricsSnapshot snapshot() const OS_EXCLUDES(mu_);

    /** Reset all values to zero, keeping registrations (ids remain
     *  valid).  Used by tests needing a pristine baseline. */
    void resetValues() OS_EXCLUDES(mu_);

  private:
    enum class Kind : std::uint8_t { Counter, Gauge, Histogram };

    struct HistogramData
    {
        double lo = 0.0;       //!< Immutable after registration.
        double hi = 0.0;       //!< Immutable after registration.
        double binWidth = 0.0; //!< Immutable after registration.
        /** [under, b0..bN-1, over]; length fixed at registration. */
        std::unique_ptr<std::atomic<std::uint64_t>[]> bins;
        std::size_t binCount = 0; //!< == bins length (N + 2).
        std::atomic<std::uint64_t> total{0};
        std::atomic<double> sum{0.0};
    };

    /** What registering a name decided, under mu_; checked() turns
     *  a fault into an OS_CHECK failure once mu_ is released. */
    struct Registration
    {
        enum class Fault : std::uint8_t { None, KindClash, Full };
        Id id = 0;
        Fault fault = Fault::None;
        bool fresh = false; //!< The name was new: id was just taken.
    };

    Registration registerMetricLocked(const std::string &name, Kind kind)
        OS_REQUIRES(mu_);

    /** @return r.id; aborts on r's fault (call without mu_ held). */
    static Id checked(const Registration &r, const std::string &name);

    /** Guards registration and the name maps; values are atomics and
     *  need no lock. */
    mutable Mutex mu_;

    std::map<std::string, std::pair<Kind, Id>> names_
        OS_GUARDED_BY(mu_);

    /** Fixed-capacity value arrays: ids index them directly and they
     *  never reallocate, so lock-free updates stay valid while other
     *  threads register new metrics. */
    std::array<std::atomic<std::uint64_t>, kMaxCounters> counters_{};
    std::array<std::atomic<double>, kMaxGauges> gauges_{};
    std::array<HistogramData, kMaxHistograms> histograms_;

    std::size_t counterCount_ OS_GUARDED_BY(mu_) = 0;
    std::size_t gaugeCount_ OS_GUARDED_BY(mu_) = 0;
    std::size_t histogramCount_ OS_GUARDED_BY(mu_) = 0;

    /** name of each id, per kind, for snapshotting. */
    std::vector<const std::string *> counterNames_ OS_GUARDED_BY(mu_);
    std::vector<const std::string *> gaugeNames_ OS_GUARDED_BY(mu_);
    std::vector<const std::string *> histogramNames_
        OS_GUARDED_BY(mu_);
};

} // namespace oceanstore

#endif // OCEANSTORE_OBS_METRICS_H
