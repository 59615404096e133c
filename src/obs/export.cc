#include "obs/export.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <utility>

#include "obs/metrics.h"

namespace oceanstore {

namespace {

const char *
kindName(SpanKind k)
{
    switch (k) {
    case SpanKind::Local:
        return "local";
    case SpanKind::Send:
        return "send";
    case SpanKind::Multicast:
        return "multicast";
    }
    return "?";
}

const char *
statusName(SpanStatus s)
{
    return s == SpanStatus::Ok ? "ok" : "dropped";
}

/** Deterministic sim-time rendering (sub-microsecond resolution on
 *  second-scale values). */
std::string
jsonTime(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

/** Escape a string for embedding in JSON. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            out += c;
        }
    }
    return out;
}

} // namespace

void
writeSpansJsonl(const Tracer &tracer, std::ostream &out)
{
    writeSpansJsonl(tracer, tracer.buffer().snapshot(), out);
}

void
writeSpansJsonl(const Tracer &tracer,
                const std::vector<SpanRecord> &spans, std::ostream &out)
{
    for (const SpanRecord &r : spans) {
        out << "{\"trace\": " << r.traceId << ", \"span\": " << r.spanId
            << ", \"parent\": " << r.parent << ", \"component\": \""
            << jsonEscape(tracer.internedString(r.component))
            << "\", \"name\": \""
            << jsonEscape(tracer.internedString(r.name)) << "\"";
        if (r.node != ~0u)
            out << ", \"node\": " << r.node;
        if (r.peer != ~0u)
            out << ", \"peer\": " << r.peer;
        out << ", \"hop\": " << r.hop;
        if (r.bytes != 0)
            out << ", \"bytes\": " << r.bytes;
        out << ", \"start\": " << jsonTime(r.start)
            << ", \"end\": " << jsonTime(r.end) << ", \"kind\": \""
            << kindName(r.kind) << "\", \"status\": \""
            << statusName(r.status) << "\"}\n";
    }
}

void
writeChromeTrace(const Tracer &tracer, std::ostream &out)
{
    out << "[";
    bool first = true;
    for (const SpanRecord &r : tracer.buffer().snapshot()) {
        // Complete ("X") events: sim-seconds -> microseconds; one pid
        // per trace so chrome://tracing groups causally related spans,
        // one tid per node.
        double ts = r.start * 1e6;
        double dur = (r.end - r.start) * 1e6;
        if (dur < 1.0)
            dur = 1.0; // zero-width spans are invisible
        out << (first ? "\n" : ",\n") << "{\"name\": \""
            << jsonEscape(tracer.internedString(r.name))
            << "\", \"cat\": \""
            << jsonEscape(tracer.internedString(r.component))
            << "\", \"ph\": \"X\", \"ts\": " << jsonTime(ts)
            << ", \"dur\": " << jsonTime(dur)
            << ", \"pid\": " << r.traceId << ", \"tid\": "
            << (r.node == ~0u ? 0 : r.node)
            << ", \"args\": {\"span\": " << r.spanId
            << ", \"parent\": " << r.parent << ", \"hop\": " << r.hop
            << ", \"bytes\": " << r.bytes << ", \"kind\": \""
            << kindName(r.kind) << "\", \"status\": \""
            << statusName(r.status) << "\"}}";
        first = false;
    }
    out << "\n]\n";
}

bool
dumpSpansJsonl(const Tracer &tracer, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    writeSpansJsonl(tracer, out);
    return static_cast<bool>(out);
}

bool
dumpChromeTrace(const Tracer &tracer, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    writeChromeTrace(tracer, out);
    return static_cast<bool>(out);
}

bool
dumpFlight(const Tracer &tracer, const std::string &dir,
           const std::string &label)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::string base = dir + "/" + label + ".flight";

    std::vector<SpanRecord> spans = tracer.buffer().tail(kFlightDumpSpans);
    bool ok = true;
    {
        std::ofstream out(base + ".trace.jsonl");
        if (!out)
            return false;
        // Span ids are append positions, so the newest one counts
        // every span recorded so far.
        out << "{\"meta\": \"flight\", \"clock\": \"wall\""
            << ", \"spans\": " << spans.size() << ", \"recorded\": "
            << (spans.empty() ? 0 : spans.back().spanId) << "}\n";
        writeSpansJsonl(tracer, spans, out);
        ok = static_cast<bool>(out) && ok;
    }
    {
        std::ofstream out(base + ".metrics.json");
        if (!out)
            return false;
        MetricsRegistry::global().snapshot().writeJson(out);
        ok = static_cast<bool>(out) && ok;
    }
    static const MetricsRegistry::Id flight_dumps =
        MetricsRegistry::global().counter("obs.flight_dumps");
    MetricsRegistry::global().inc(flight_dumps);
    return ok;
}

FlightScope::FlightScope(const Tracer &tracer, std::string label)
    : tracer_(tracer), label_(std::move(label)),
      prevHook_(checkFailureHook()), prevHookArg_(checkFailureHookArg())
{
    const char *env = std::getenv("OCEANSTORE_CHAOS_DUMP_DIR");
    dir_ = env && *env ? env : ".";
    setCheckFailureHook(&FlightScope::onCheckFailure, this);
}

FlightScope::~FlightScope()
{
    setCheckFailureHook(prevHook_, prevHookArg_);
}

void
FlightScope::onCheckFailure(void *arg)
{
    const FlightScope *self = static_cast<const FlightScope *>(arg);
    bool ok = dumpFlight(self->tracer_, self->dir_, self->label_);
    std::fprintf(stderr, "flight dump: %s %s/%s.flight.* (%zu spans "
                 "recorded)\n",
                 ok ? "wrote" : "FAILED to write", self->dir_.c_str(),
                 self->label_.c_str(), self->tracer_.buffer().size());
}

} // namespace oceanstore
