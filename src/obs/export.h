/**
 * @file
 * Trace and metrics exporters (observability layer).
 *
 * Two serializations of a Tracer's span buffer:
 *
 *  - JSONL: one span object per line, the stable format consumed by
 *    `tools/tracecat` (critical paths, hop histograms, retry trees)
 *    and by the chaos suite's failing-seed dumps.  Rendering is
 *    deterministic — fixed field order, fixed number formatting — so
 *    two runs of the same seed produce byte-identical dumps (the
 *    determinism sweep asserts this).
 *
 *  - Chrome trace_event JSON: loadable in chrome://tracing or Perfetto
 *    for a visual timeline; sim-seconds are mapped to microseconds,
 *    traces to pids and nodes to tids.
 *
 * Plus the black box for the threaded deployment mode: when an
 * OS_CHECK fails in a live cluster there is no deterministic seed to
 * re-run under tracing (the chaos suite's trick), so a FlightScope
 * hooks check failures to dump the newest spans of the Tracer's own
 * buffer and a metrics snapshot just before the process aborts.
 *
 * These are the only files under src/ permitted to perform ad-hoc
 * output (the lint `adhoc-print` rule exempts obs/export*); all other
 * code reports through the logger, metrics or spans.
 */

#ifndef OCEANSTORE_OBS_EXPORT_H
#define OCEANSTORE_OBS_EXPORT_H

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/check.h"

namespace oceanstore {

/** Write every span as one JSON object per line (JSONL). */
void writeSpansJsonl(const Tracer &tracer, std::ostream &out);

/**
 * Write an explicit span list (e.g. a flight dump's tail) as
 * JSONL, resolving interned strings through @p tracer.  Same line
 * format as writeSpansJsonl(tracer, out).
 */
void writeSpansJsonl(const Tracer &tracer,
                     const std::vector<SpanRecord> &spans,
                     std::ostream &out);

/** Write the Chrome trace_event format (a JSON array of complete
 *  "X" events). */
void writeChromeTrace(const Tracer &tracer, std::ostream &out);

/** writeSpansJsonl to a file; false on I/O failure. */
bool dumpSpansJsonl(const Tracer &tracer, const std::string &path);

/** writeChromeTrace to a file; false on I/O failure. */
bool dumpChromeTrace(const Tracer &tracer, const std::string &path);

/** Spans a flight dump holds: the newest ones in the Tracer's buffer. */
inline constexpr std::size_t kFlightDumpSpans = 4096;

/**
 * Write a flight dump: the newest kFlightDumpSpans spans of @p
 * tracer's buffer (JSONL, preceded by one `{"meta": "flight", ...}`
 * line announcing the wall clock and the spans recorded in all) to
 * `<dir>/<label>.flight.trace.jsonl`, and a MetricsRegistry::global()
 * snapshot to `<dir>/<label>.flight.metrics.json`.  @return false on
 * I/O failure.
 */
bool dumpFlight(const Tracer &tracer, const std::string &dir,
                const std::string &label);

/**
 * RAII black box: hooks OS_CHECK failures to dumpFlight(@p tracer,
 * dir, @p label), where dir is OCEANSTORE_CHAOS_DUMP_DIR (falling back
 * to the working directory).  Restores the previous hook on
 * destruction.
 */
class FlightScope
{
  public:
    FlightScope(const Tracer &tracer, std::string label);
    ~FlightScope();

    FlightScope(const FlightScope &) = delete;
    FlightScope &operator=(const FlightScope &) = delete;

  private:
    static void onCheckFailure(void *arg);

    const Tracer &tracer_;
    std::string label_;
    std::string dir_;
    CheckFailureHook prevHook_;
    void *prevHookArg_;
};

} // namespace oceanstore

#endif // OCEANSTORE_OBS_EXPORT_H
