#include "obs/trace.h"

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

} // namespace

std::uint32_t
TraceBuffer::append(SpanRecord &rec, std::string_view component,
                    std::string_view name)
{
    MutexLock lock(mu_);
    rec.component = internLocked(component);
    rec.name = internLocked(name);
    rec.spanId = static_cast<std::uint32_t>(records_.size() + 1);
    records_.push_back(rec);
    return rec.spanId;
}

void
TraceBuffer::setEnd(std::uint32_t span_id, double end)
{
    MutexLock lock(mu_);
    if (span_id == 0 || span_id > records_.size())
        return;
    SpanRecord &r = records_[span_id - 1];
    if (end > r.end)
        r.end = end;
}

std::vector<SpanRecord>
TraceBuffer::snapshot() const
{
    MutexLock lock(mu_);
    return records_;
}

std::vector<SpanRecord>
TraceBuffer::tail(std::size_t n) const
{
    MutexLock lock(mu_);
    std::size_t from = records_.size() > n ? records_.size() - n : 0;
    return std::vector<SpanRecord>(
        records_.begin() + static_cast<std::ptrdiff_t>(from),
        records_.end());
}

std::size_t
TraceBuffer::size() const
{
    MutexLock lock(mu_);
    return records_.size();
}

std::uint32_t
TraceBuffer::intern(std::string_view s)
{
    MutexLock lock(mu_);
    return internLocked(s);
}

std::uint32_t
TraceBuffer::internLocked(std::string_view s)
{
    auto it = internTable_.find(s);
    if (it != internTable_.end())
        return it->second;
    std::uint32_t id = static_cast<std::uint32_t>(strings_.size());
    internTable_.emplace(s, id);
    strings_.emplace_back(s);
    return id;
}

const std::string &
TraceBuffer::internedString(std::uint32_t id) const
{
    // Check outside the lock so an OS_CHECK failure (whose
    // FlightScope dump hook re-enters this function) cannot deadlock.
    std::size_t n;
    {
        MutexLock lock(mu_);
        n = strings_.size();
    }
    OS_CHECK(id < n, "Tracer: bad interned id ", id);
    MutexLock lock(mu_);
    // Deque references are stable past the unlock.
    return strings_[id];
}

std::vector<std::string>
TraceBuffer::strings() const
{
    MutexLock lock(mu_);
    return std::vector<std::string>(strings_.begin(), strings_.end());
}

void
TraceBuffer::clear()
{
    MutexLock lock(mu_);
    records_.clear();
    internTable_.clear();
    strings_.clear();
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

SpanRecord
Tracer::newSpan(std::string_view component, std::string_view name,
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
    rec.node = node;
    rec.peer = peer;
    rec.bytes = bytes;
    rec.start = start;
    rec.end = end;
    rec.kind = kind;
    rec.status = status;
    buffer_.append(rec, component, name); // stamps names + spanId
    static const MetricsRegistry::Id spans_recorded =
        MetricsRegistry::global().counter("obs.spans_recorded");
    MetricsRegistry::global().inc(spans_recorded);
    return rec;
}

std::uint32_t
Tracer::beginLocalSpan(std::string_view component,
                       std::string_view name, double now,
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
Tracer::messageSpan(std::string_view name, std::uint32_t node,
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
    nextTraceId_.store(1, std::memory_order_relaxed);
}

} // namespace oceanstore
