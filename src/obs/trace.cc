#include "obs/trace.h"

#include <algorithm>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace oceanstore {

std::atomic<Tracer *> Tracer::active_{nullptr};

namespace {

/** Each thread's ambient causal position.  Shared across Tracer
 *  instances (exactly one is active at a time), per thread so
 *  concurrent runtime threads never race on it. */
thread_local TraceContext tlCurrent;
thread_local std::vector<TraceContext> tlScopeStack;

/** Process-unique TraceBuffer instance ids (never reused), so a
 *  thread's cached arena pointer can never alias a new buffer. */
std::atomic<std::uint64_t> nextBufferId{1};

} // namespace

TraceBuffer::TraceBuffer()
    : bufferId_(nextBufferId.fetch_add(1, std::memory_order_relaxed))
{
}

TraceBuffer::Arena &
TraceBuffer::arenaForThisThread() const
{
    // Single-entry cache: the common case is one buffer appending per
    // thread, so almost every append skips arenasMu_ entirely.  The
    // buffer id check makes a stale entry (previous buffer, possibly
    // destroyed) miss rather than alias.
    struct Cached
    {
        std::uint64_t buffer = 0;
        Arena *arena = nullptr;
    };
    thread_local Cached cached;
    if (cached.buffer == bufferId_)
        return *cached.arena;

    MutexLock lock(arenasMu_);
    arenas_.push_back(std::make_unique<Arena>());
    Arena *a = arenas_.back().get();
    cached = Cached{bufferId_, a};
    return *a;
}

std::uint32_t
TraceBuffer::append(SpanRecord &rec)
{
    rec.spanId = nextSpanId_.fetch_add(1, std::memory_order_relaxed);
    Arena &a = arenaForThisThread();
    MutexLock lock(a.mu);
    a.records.push_back(rec);
    return rec.spanId;
}

void
TraceBuffer::setEnd(std::uint32_t span_id, double end)
{
    MutexLock lock(arenasMu_);
    for (const std::unique_ptr<Arena> &a : arenas_) {
        MutexLock arena_lock(a->mu);
        // Ids ascend within an arena (its appends are serialized and
        // draw from the global counter), so binary search works.
        auto it = std::lower_bound(
            a->records.begin(), a->records.end(), span_id,
            [](const SpanRecord &r, std::uint32_t id) {
                return r.spanId < id;
            });
        if (it != a->records.end() && it->spanId == span_id) {
            if (end > it->end)
                it->end = end;
            return;
        }
    }
}

std::vector<SpanRecord>
TraceBuffer::snapshot() const
{
    std::vector<SpanRecord> out;
    {
        MutexLock lock(arenasMu_);
        for (const std::unique_ptr<Arena> &a : arenas_) {
            MutexLock arena_lock(a->mu);
            out.insert(out.end(), a->records.begin(),
                       a->records.end());
        }
    }
    std::sort(out.begin(), out.end(),
              [](const SpanRecord &x, const SpanRecord &y) {
                  return x.spanId < y.spanId;
              });
    return out;
}

std::size_t
TraceBuffer::size() const
{
    std::size_t n = 0;
    MutexLock lock(arenasMu_);
    for (const std::unique_ptr<Arena> &a : arenas_) {
        MutexLock arena_lock(a->mu);
        n += a->records.size();
    }
    return n;
}

void
TraceBuffer::clear()
{
    MutexLock lock(arenasMu_);
    for (const std::unique_ptr<Arena> &a : arenas_) {
        MutexLock arena_lock(a->mu);
        a->records.clear();
    }
    nextSpanId_.store(1, std::memory_order_relaxed);
}

void
TraceBuffer::reserve(std::size_t n)
{
    Arena &a = arenaForThisThread();
    MutexLock lock(a.mu);
    a.records.reserve(n);
}

const TraceContext &
Tracer::current() const
{
    return tlCurrent;
}

void
Tracer::setCurrent(const TraceContext &ctx)
{
    tlCurrent = ctx;
}

void
Tracer::clearCurrent()
{
    tlCurrent = TraceContext{};
}

std::uint32_t
Tracer::intern(const std::string &s)
{
    MutexLock lock(internMu_);
    auto it = internTable_.find(s);
    if (it != internTable_.end())
        return it->second;
    std::uint32_t id = static_cast<std::uint32_t>(strings_.size());
    internTable_.emplace(s, id);
    strings_.push_back(s);
    return id;
}

const std::string &
Tracer::internedString(std::uint32_t id) const
{
    // Check outside the lock so an OS_CHECK failure (whose flight-
    // recorder dump hook re-enters this function) cannot deadlock.
    std::size_t n;
    {
        MutexLock lock(internMu_);
        n = strings_.size();
    }
    OS_CHECK(id < n, "Tracer: bad interned id ", id);
    MutexLock lock(internMu_);
    // Deque references are stable past the unlock.
    return strings_[id];
}

std::vector<std::string>
Tracer::strings() const
{
    MutexLock lock(internMu_);
    return std::vector<std::string>(strings_.begin(), strings_.end());
}

SpanRecord
Tracer::newSpan(const std::string &component, const std::string &name,
                std::uint32_t node, std::uint32_t peer,
                std::uint32_t bytes, double start, double end,
                SpanKind kind, SpanStatus status)
{
    SpanRecord rec;
    if (tlCurrent.valid()) {
        rec.traceId = tlCurrent.traceId;
        rec.parent = tlCurrent.spanId;
        rec.hop = tlCurrent.hop + 1;
    } else {
        rec.traceId =
            nextTraceId_.fetch_add(1, std::memory_order_relaxed);
        rec.parent = 0;
        rec.hop = 0;
    }
    rec.component = intern(component);
    rec.name = intern(name);
    rec.node = node;
    rec.peer = peer;
    rec.bytes = bytes;
    rec.start = start;
    rec.end = end;
    rec.kind = kind;
    rec.status = status;
    buffer_.append(rec); // stamps rec.spanId
    static const MetricsRegistry::Id spans_recorded =
        MetricsRegistry::global().counter("obs.spans_recorded");
    MetricsRegistry::global().inc(spans_recorded);
    if (FlightRecorder *fr = FlightRecorder::active())
        fr->record(rec);
    return rec;
}

std::uint32_t
Tracer::beginLocalSpan(const std::string &component,
                       const std::string &name, double now,
                       std::uint32_t node)
{
    SpanRecord rec = newSpan(component, name, node, ~0u, 0, now, now,
                             SpanKind::Local, SpanStatus::Ok);
    tlScopeStack.push_back(tlCurrent);
    tlCurrent = TraceContext{rec.traceId, rec.spanId, rec.hop};
    return rec.spanId;
}

void
Tracer::endLocalSpan(std::uint32_t span_id, double now)
{
    OS_CHECK(!tlScopeStack.empty(),
             "Tracer::endLocalSpan without matching begin");
    OS_CHECK(tlCurrent.spanId == span_id,
             "Tracer::endLocalSpan: unbalanced span nesting (closing ",
             span_id, " while inside ", tlCurrent.spanId, ")");
    setSpanEnd(span_id, now);
    tlCurrent = tlScopeStack.back();
    tlScopeStack.pop_back();
}

TraceContext
Tracer::messageSpan(const std::string &name, std::uint32_t node,
                    std::uint32_t peer, std::uint32_t bytes,
                    double start, double end, SpanKind kind,
                    SpanStatus status)
{
    SpanRecord rec = newSpan("net", name, node, peer, bytes, start,
                             end, kind, status);
    return TraceContext{rec.traceId, rec.spanId, rec.hop};
}

void
Tracer::clear()
{
    buffer_.clear();
    tlCurrent = TraceContext{};
    tlScopeStack.clear();
    {
        MutexLock lock(internMu_);
        internTable_.clear();
        strings_.clear();
    }
    nextTraceId_.store(1, std::memory_order_relaxed);
}

} // namespace oceanstore
