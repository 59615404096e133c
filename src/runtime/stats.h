/**
 * @file
 * Runtime health publication (DESIGN.md section 16).
 *
 * RuntimeStats (runtime/runtime.h) is the raw snapshot; this header
 * turns it into the exported surfaces:
 *
 *  - publishRuntimeStats() copies a snapshot into the `runtime.*`
 *    gauges of the global MetricsRegistry, so dashboards and metric
 *    dumps see the same numbers statusReport() renders;
 *  - writeRuntimeStatsJson() renders one snapshot as a deterministic
 *    JSON object (fixed key order, %.12g doubles) for status
 *    reports and live export;
 *  - PeriodicStatsExporter re-snapshots on a fixed period from the
 *    runtime's own timer machinery, publishing gauges and handing
 *    (stats, metrics snapshot) to an optional sink.  All exporter
 *    work runs as runtime callbacks, so sinks need no locking
 *    against protocol callbacks.
 *
 * This lives in src/runtime (not src/obs) because it must see the
 * Runtime interface; the obs layer depends only on util.
 */

#ifndef OCEANSTORE_RUNTIME_STATS_H
#define OCEANSTORE_RUNTIME_STATS_H

#include <atomic>
#include <functional>
#include <iosfwd>
#include <memory>

#include "obs/metrics.h"
#include "runtime/runtime.h"

namespace oceanstore {

/** Copy @p s into the global registry's `runtime.*` gauges. */
void publishRuntimeStats(const RuntimeStats &s);

/** Render @p s as a single-line JSON object, deterministic byte
 *  layout (fixed key order, %.12g doubles). */
void writeRuntimeStatsJson(const RuntimeStats &s, std::ostream &out);

/**
 * Periodic health snapshots driven by the runtime's own timers.
 *
 * Each tick (every @p period runtime seconds): take rt.stats(),
 * publish the gauges, and — when a sink is set — hand it the stats
 * plus a fresh MetricsSnapshot.  Ticks run as runtime callbacks.
 *
 * The exporter must be stop()ped (or destroyed, which stops it)
 * before the runtime shuts down, and must outlive its last tick;
 * stop() synchronizes with in-flight ticks via execute(), so after
 * it returns no sink call is running or will run.
 */
class PeriodicStatsExporter
{
  public:
    using Sink =
        std::function<void(const RuntimeStats &,
                           const MetricsSnapshot &)>;

    /** Does not start ticking; call start(). Sink may be null. */
    PeriodicStatsExporter(Runtime &rt, double period, Sink sink = {});

    ~PeriodicStatsExporter();

    PeriodicStatsExporter(const PeriodicStatsExporter &) = delete;
    PeriodicStatsExporter &
    operator=(const PeriodicStatsExporter &) = delete;

    /** Begin (or restart) the tick cycle. */
    void start();

    /** Halt ticking; idempotent, callable from any thread. */
    void stop();

  private:
    void tick(const std::shared_ptr<std::atomic<bool>> &running);

    Runtime &rt_;
    double period_;
    Sink sink_;
    /** Armed flag shared with queued tick callbacks; a stopped
     *  exporter's stale timers see false and touch nothing else. */
    std::shared_ptr<std::atomic<bool>> running_;
    EventId timer_ = invalidEventId;
};

} // namespace oceanstore

#endif // OCEANSTORE_RUNTIME_STATS_H
