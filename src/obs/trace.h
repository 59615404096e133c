/**
 * @file
 * Causal message tracing (observability layer).
 *
 * The paper's quantitative claims are about message counts, hop
 * counts and latency phases (Figures 2-6, Section 4); its
 * introspection architecture (Section 4.7) argues the system should
 * observe itself.  This header provides the mechanism: a TraceContext
 * (trace id + span id + hop count) rides inside every sim::Message
 * and every scheduled event, so each protocol action can be linked to
 * the action that caused it, across the network and across timers.
 *
 * Span records are appended to a TraceBuffer owned by a Tracer.
 * Tracing is *ambient*: protocol code never threads a tracer through
 * its call graph.  A TraceScope installs a Tracer as the process-wide
 * active instance; when none is installed, every hook in the hot
 * paths costs exactly one null-pointer check (mirroring the
 * fault-injector contract from DESIGN.md section 10).
 *
 * Thread contract: every span is recorded under the paced Runtime's
 * loop mutex (the loop fires events under it, and client threads take
 * it through Pacer::Hold), so span writers are already serialized.
 * The TraceBuffer keeps one lock of its own for the threads that call
 * a Tracer directly and for readers; appending a span takes it once.
 * The ambient context is thread-local — each thread carries its own
 * causal position, installed around each event callback.
 *
 * Determinism: tracing only *observes*.  It consumes no randomness,
 * schedules no events and never branches protocol behaviour, so a
 * traced run replays bit-for-bit against an untraced one.  On the
 * single-threaded sim backend two traced runs of the same seed
 * produce byte-identical span dumps (asserted by the determinism
 * sweep).
 */

#ifndef OCEANSTORE_OBS_TRACE_H
#define OCEANSTORE_OBS_TRACE_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/mutex.h"

namespace oceanstore {

/**
 * Causal position of a message or event: which trace it belongs to,
 * which span caused it, and how many causal hops lie between it and
 * the trace root.  Plain POD so sim::Message and simulator slots can
 * embed it by value; the zero value means "untraced".
 */
struct TraceContext
{
    std::uint64_t traceId = 0; //!< 0 = no active trace.
    std::uint32_t spanId = 0;  //!< Span that is the causal parent.
    std::uint32_t hop = 0;     //!< Causal hops from the trace root.

    /** True when this context belongs to a live trace. */
    bool valid() const { return traceId != 0; }
};

/** What kind of action a span records. */
enum class SpanKind : std::uint8_t
{
    Local = 0,     //!< In-process action (handler, API call, timer).
    Send = 1,      //!< Unicast network transmission.
    Multicast = 2, //!< Fan-out transmission (one span per multicast).
};

/** Outcome of the action the span records. */
enum class SpanStatus : std::uint8_t
{
    Ok = 0,      //!< Completed / delivered (absent node-down at arrival).
    Dropped = 1, //!< Lost in transit (crash, drop rate, fault injector).
};

/**
 * One recorded span.  Component and name are interned string ids
 * (resolve via Tracer::internedString) so the hot path never copies
 * strings; times are Runtime clock seconds (simulated on the sim
 * backend, wall-clock since start on the threaded backend).
 */
struct SpanRecord
{
    std::uint64_t traceId = 0;
    std::uint32_t spanId = 0;  //!< 1-based append sequence (index + 1).
    std::uint32_t parent = 0;  //!< Parent span id, 0 for a trace root.
    std::uint32_t component = 0; //!< Interned component label.
    std::uint32_t name = 0;      //!< Interned span name (message type).
    std::uint32_t node = ~0u;    //!< Acting / sending node.
    std::uint32_t peer = ~0u;    //!< Destination node; fan-out count
                                 //!< for multicast spans.
    std::uint32_t hop = 0;       //!< Causal hops from the trace root.
    std::uint32_t bytes = 0;     //!< Wire bytes (send spans).
    double start = 0.0;          //!< Clock reading the action began.
    double end = 0.0;            //!< Clock reading it completes/delivers.
    SpanKind kind = SpanKind::Local;
    SpanStatus status = SpanStatus::Ok;
};

/**
 * Per-run span storage: the spans in append order plus the strings
 * they reference, behind one lock.
 *
 * A span's id is its index + 1, assigned under that lock, so setEnd()
 * is one bounds-checked index and snapshot() a plain copy.  Interning
 * shares the lock, so appending a span (both names interned) locks
 * once.  clear() keeps the vector's capacity, so repeated scenario
 * runs (chaos seeds, bench repeats) reuse the allocation.
 *
 * No OS_CHECK runs while the lock is held: FlightScope's check-failure
 * hook takes it to dump the buffer's tail.
 */
class TraceBuffer
{
  public:
    TraceBuffer() = default;

    TraceBuffer(const TraceBuffer &) = delete;
    TraceBuffer &operator=(const TraceBuffer &) = delete;

    /** Intern @p component and @p name into @p rec, stamp it with the
     *  next span id, append it, and return the id. */
    std::uint32_t append(SpanRecord &rec, std::string_view component,
                         std::string_view name) OS_EXCLUDES(mu_);

    /** Extend a span's end time (monotone max), e.g. as multicast
     *  fan-out legs are scheduled.  Unknown ids are ignored. */
    void setEnd(std::uint32_t span_id, double end) OS_EXCLUDES(mu_);

    /** Copy of every span in id order (== append order). */
    std::vector<SpanRecord> snapshot() const OS_EXCLUDES(mu_);

    /** Copy of the newest @p n spans (all of them when fewer), in id
     *  order. */
    std::vector<SpanRecord> tail(std::size_t n) const OS_EXCLUDES(mu_);

    std::size_t size() const OS_EXCLUDES(mu_);

    bool empty() const { return size() == 0; }

    /** Intern a string, returning a stable dense id (deterministic:
     *  first-use order).  A hit builds no std::string. */
    std::uint32_t intern(std::string_view s) OS_EXCLUDES(mu_);

    /** Resolve an interned id back to its string.  The reference is
     *  stable until clear() (deque storage). */
    const std::string &internedString(std::uint32_t id) const
        OS_EXCLUDES(mu_);

    /** Copy of the interned strings in id order. */
    std::vector<std::string> strings() const OS_EXCLUDES(mu_);

    /** Drop all records and interned strings, restarting both id
     *  sequences.  Quiescent-only (no concurrent appends). */
    void clear() OS_EXCLUDES(mu_);

  private:
    std::uint32_t internLocked(std::string_view s) OS_REQUIRES(mu_);

    mutable Mutex mu_;
    std::vector<SpanRecord> records_ OS_GUARDED_BY(mu_);
    /** Transparent hash: a lookup by string_view builds no string. */
    struct StringHash
    {
        using is_transparent = void;
        std::size_t
        operator()(std::string_view s) const noexcept
        {
            return std::hash<std::string_view>{}(s);
        }
    };
    /** Only looked up, never iterated: ids come from strings_'s
     *  order, so they stay first-seen. */
    std::unordered_map<std::string, std::uint32_t, StringHash,
                       std::equal_to<>>
        internTable_ OS_GUARDED_BY(mu_);
    /** Deque: references stay stable across interning, so
     *  internedString() can hand them out past the lock. */
    std::deque<std::string> strings_ OS_GUARDED_BY(mu_);
};

/**
 * The tracing engine: allocates trace ids, tracks the ambient causal
 * context, and owns the TraceBuffer (spans and interned strings).
 *
 * Exactly one Tracer may be active at a time (see TraceScope); the
 * simulator and network consult Tracer::active() on their hot
 * paths.  The ambient context is *per thread* (each thread of a paced
 * Runtime carries its own causal position); on the
 * single-threaded sim backend that is indistinguishable from the
 * old process-wide context.
 */
class Tracer
{
  public:
    Tracer() = default;

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** The process-wide active tracer, or nullptr when tracing is
     *  detached (the common, zero-cost case). */
    static Tracer *
    active()
    {
        return active_.load(std::memory_order_acquire);
    }

    /** Ambient causal context of the calling thread (the span "we
     *  are inside of"). */
    const TraceContext &current() const;

    /** Install / clear the calling thread's ambient context.  Used
     *  by the simulator when firing an event and by the network
     *  when delivering, on both runtime backends. */
    void setCurrent(const TraceContext &ctx);
    void clearCurrent();

    /** Intern a string (see TraceBuffer::intern). */
    std::uint32_t intern(std::string_view s) { return buffer_.intern(s); }

    /** Resolve an interned id back to its string. */
    const std::string &
    internedString(std::uint32_t id) const
    {
        return buffer_.internedString(id);
    }

    /**
     * Open a local span (handler body, API entry, timer action) as a
     * child of the ambient context — or as the root of a fresh trace
     * when none is ambient — and make it the new ambient context.
     * Balance with endLocalSpan().  @return the span id.
     */
    std::uint32_t beginLocalSpan(std::string_view component,
                                 std::string_view name, double now,
                                 std::uint32_t node = ~0u);

    /** Close a local span: stamp its end time and restore the
     *  ambient context that beginLocalSpan() displaced. */
    void endLocalSpan(std::uint32_t span_id, double now);

    /**
     * Record a message transmission as a child of the ambient
     * context (or as a fresh trace root when none is ambient).
     * Does *not* change the ambient context.
     *
     * @param name    message type, e.g. "pbft.prepare"
     * @param peer    destination node; fan-out size for multicast
     * @param start   send time
     * @param end     scheduled delivery time (== start if dropped)
     * @return the context to stamp into the message, carrying this
     *         span as the causal parent of everything the receiver
     *         does.
     */
    TraceContext messageSpan(std::string_view name,
                             std::uint32_t node, std::uint32_t peer,
                             std::uint32_t bytes, double start,
                             double end, SpanKind kind,
                             SpanStatus status);

    /** Extend a span's end time (multicast legs, retransmissions). */
    void
    setSpanEnd(std::uint32_t span_id, double end)
    {
        buffer_.setEnd(span_id, end);
    }

    /** The span storage. */
    const TraceBuffer &buffer() const { return buffer_; }

    /** Copy of the interned strings in id order
     *  (id i -> strings()[i]). */
    std::vector<std::string> strings() const { return buffer_.strings(); }

    /** Drop all spans and reset ids; the intern table resets too, so
     *  repeated runs re-intern in the same order and keep identical
     *  id assignments.  Also resets the calling thread's ambient
     *  context.  Quiescent-only. */
    void clear();

  private:
    friend class TraceScope;

    static std::atomic<Tracer *> active_;

    /** Create + append a span as a child of the calling thread's
     *  ambient context, returning the full record (spanId stamped). */
    SpanRecord newSpan(std::string_view component,
                       std::string_view name, std::uint32_t node,
                       std::uint32_t peer, std::uint32_t bytes,
                       double start, double end, SpanKind kind,
                       SpanStatus status);

    TraceBuffer buffer_;

    std::atomic<std::uint64_t> nextTraceId_{1};
};

/**
 * RAII installation of a Tracer as the process-wide active instance.
 * Scopes nest (the previous active tracer is restored on
 * destruction), though in practice one per run is the norm.
 */
class TraceScope
{
  public:
    explicit TraceScope(Tracer &tracer)
        : prev_(Tracer::active_.exchange(&tracer,
                                         std::memory_order_acq_rel))
    {
    }

    ~TraceScope() { Tracer::active_.store(prev_, std::memory_order_release); }

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

  private:
    Tracer *prev_;
};

/**
 * RAII local span: opens on construction when a tracer is active,
 * closes (with the supplied clock reading) on end().  For code that
 * cannot conveniently read the clock in a destructor, call end()
 * explicitly; the destructor closes at the start time otherwise.
 * Names are string_views, so a detached span costs one null check
 * and allocates nothing.
 */
class ScopedSpan
{
  public:
    ScopedSpan(std::string_view component, std::string_view name,
               double now, std::uint32_t node = ~0u)
        : tracer_(Tracer::active()), start_(now)
    {
        if (tracer_)
            span_ = tracer_->beginLocalSpan(component, name, now, node);
    }

    /** Close the span at time @p now (idempotent). */
    void
    end(double now)
    {
        if (tracer_ && span_) {
            tracer_->endLocalSpan(span_, now);
            span_ = 0;
        }
    }

    ~ScopedSpan() { end(start_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    double start_;
    std::uint32_t span_ = 0;
};

} // namespace oceanstore

#endif // OCEANSTORE_OBS_TRACE_H
