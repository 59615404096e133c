/**
 * @file
 * Unit and integration tests for the observability layer (DESIGN.md
 * section 11): the MetricsRegistry, the causal Tracer, the sim-time
 * PhaseProfiler, and their propagation through the simulator and
 * network — including the end-to-end causal chain of a committed
 * update through a full universe (the tracecat acceptance criterion,
 * asserted here in-process).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/universe.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/check.h"

namespace oceanstore {
namespace {

// ---------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------

TEST(Metrics, CounterGaugeHistogramBasics)
{
    MetricsRegistry reg;

    auto c = reg.counter("t.count");
    EXPECT_EQ(reg.counter("t.count"), c); // re-register -> same id
    reg.inc(c);
    reg.inc(c, 4);
    EXPECT_EQ(reg.counterValue("t.count"), 5u);
    EXPECT_EQ(reg.counterValue("t.absent"), 0u);

    auto g = reg.gauge("t.level");
    reg.set(g, 2.5);
    reg.add(g, 1.0);
    EXPECT_DOUBLE_EQ(reg.gaugeValue("t.level"), 3.5);

    // 5 buckets over [0, 10) plus underflow/overflow.
    auto h = reg.histogram("t.lat", 0.0, 10.0, 5);
    reg.observe(h, -1.0); // underflow
    reg.observe(h, 0.0);  // first bucket
    reg.observe(h, 9.99); // last bucket
    reg.observe(h, 10.0); // overflow (hi is exclusive)
    reg.observe(h, 100.0);

    MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counters.at("t.count"), 5u);
    EXPECT_DOUBLE_EQ(snap.gauges.at("t.level"), 3.5);
    const MetricsSnapshot::Hist &hist = snap.histograms.at("t.lat");
    ASSERT_EQ(hist.bins.size(), 7u);
    EXPECT_EQ(hist.bins.front(), 1u); // underflow
    EXPECT_EQ(hist.bins[1], 1u);
    EXPECT_EQ(hist.bins[5], 1u);
    EXPECT_EQ(hist.bins.back(), 2u); // overflow
    EXPECT_EQ(hist.total, 5u);
    EXPECT_DOUBLE_EQ(hist.sum, -1.0 + 0.0 + 9.99 + 10.0 + 100.0);
}

TEST(Metrics, KindClashAborts)
{
    MetricsRegistry reg;
    reg.counter("t.clash");
    EXPECT_DEATH(reg.gauge("t.clash"), "different kind");
}

TEST(Metrics, DeltaIsolatesOneInterval)
{
    MetricsRegistry reg;
    auto c1 = reg.counter("t.active");
    auto c2 = reg.counter("t.idle");
    auto g = reg.gauge("t.level");
    auto h = reg.histogram("t.lat", 0.0, 1.0, 2);
    reg.inc(c1, 10);
    reg.inc(c2, 3);
    reg.observe(h, 0.2);
    reg.set(g, 7.0);

    MetricsSnapshot before = reg.snapshot();
    reg.inc(c1, 5);
    reg.observe(h, 0.9);
    reg.set(g, 9.0);
    MetricsSnapshot delta = reg.snapshot().deltaFrom(before);

    EXPECT_EQ(delta.counters.at("t.active"), 5u);
    // Unchanged counters are omitted from the delta entirely.
    EXPECT_EQ(delta.counters.count("t.idle"), 0u);
    // Gauges are levels, not totals: pass through at current value.
    EXPECT_DOUBLE_EQ(delta.gauges.at("t.level"), 9.0);
    const MetricsSnapshot::Hist &dh = delta.histograms.at("t.lat");
    EXPECT_EQ(dh.total, 1u);
    EXPECT_DOUBLE_EQ(dh.sum, 0.9);

    // A no-op interval yields an empty counter/histogram delta.
    MetricsSnapshot now = reg.snapshot();
    MetricsSnapshot none = now.deltaFrom(now);
    EXPECT_TRUE(none.counters.empty());
    EXPECT_TRUE(none.histograms.empty());
}

TEST(Metrics, ResetKeepsRegistrations)
{
    MetricsRegistry reg;
    auto c = reg.counter("t.count");
    reg.inc(c, 42);
    reg.resetValues();
    EXPECT_EQ(reg.counterValue("t.count"), 0u);
    reg.inc(c); // the id stays valid across reset
    EXPECT_EQ(reg.counterValue("t.count"), 1u);
}

TEST(Metrics, JsonRenderingIsDeterministic)
{
    MetricsSnapshot empty;
    EXPECT_EQ(empty.toJson(), "{\n  \"counters\": {},\n"
                              "  \"gauges\": {},\n"
                              "  \"histograms\": {}\n}\n");

    MetricsRegistry reg;
    reg.inc(reg.counter("t.b"), 2);
    reg.inc(reg.counter("t.a"), 1);
    reg.set(reg.gauge("t.g"), 0.125);
    std::string a = reg.snapshot().toJson();
    std::string b = reg.snapshot().toJson();
    EXPECT_EQ(a, b);
    // Sorted keys: t.a renders before t.b regardless of
    // registration order.
    EXPECT_LT(a.find("\"t.a\": 1"), a.find("\"t.b\": 2"));
    EXPECT_NE(a.find("\"t.g\": 0.125"), std::string::npos);
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

TEST(Trace, LocalSpanNestingAndAmbientContext)
{
    Tracer t;
    EXPECT_FALSE(t.current().valid());

    std::uint32_t root = t.beginLocalSpan("core", "op", 1.0, 5);
    EXPECT_TRUE(t.current().valid());
    EXPECT_EQ(t.current().spanId, root);
    std::uint32_t child = t.beginLocalSpan("core", "sub", 1.5);
    EXPECT_EQ(t.current().spanId, child);

    // Single-threaded appends draw sequential span ids, so id - 1
    // indexes the snapshot (which is sorted by span id).
    auto spans = t.buffer().snapshot();
    const SpanRecord &rr = spans[root - 1];
    const SpanRecord &cr = spans[child - 1];
    EXPECT_EQ(rr.parent, 0u);
    EXPECT_EQ(rr.hop, 0u);
    EXPECT_EQ(rr.node, 5u);
    EXPECT_EQ(cr.parent, root);
    EXPECT_EQ(cr.hop, 1u);
    EXPECT_EQ(cr.traceId, rr.traceId);

    t.endLocalSpan(child, 2.0);
    EXPECT_EQ(t.current().spanId, root); // ambient restored
    t.endLocalSpan(root, 3.0);
    EXPECT_FALSE(t.current().valid());
    auto ended = t.buffer().snapshot();
    EXPECT_DOUBLE_EQ(ended[child - 1].end, 2.0);
    EXPECT_DOUBLE_EQ(ended[root - 1].end, 3.0);

    // A fresh root after the stack unwinds starts a new trace.
    std::uint32_t second = t.beginLocalSpan("core", "op2", 4.0);
    EXPECT_NE(t.buffer().snapshot()[second - 1].traceId, rr.traceId);
    t.endLocalSpan(second, 4.0);
}

TEST(Trace, MessageSpanParentsWithoutEnteringScope)
{
    Tracer t;
    std::uint32_t root = t.beginLocalSpan("core", "op", 1.0);

    TraceContext ctx = t.messageSpan("x.msg", 0, 1, 64, 1.0, 1.2,
                                     SpanKind::Send, SpanStatus::Ok);
    // The returned context names the new span as causal parent...
    EXPECT_EQ(ctx.traceId, t.current().traceId);
    EXPECT_EQ(ctx.hop, 1u);
    SpanRecord mr = t.buffer().snapshot()[ctx.spanId - 1];
    EXPECT_EQ(mr.parent, root);
    EXPECT_EQ(mr.kind, SpanKind::Send);
    EXPECT_EQ(mr.peer, 1u);
    EXPECT_EQ(mr.bytes, 64u);
    // ...but the ambient context is unchanged (a send is not a scope).
    EXPECT_EQ(t.current().spanId, root);

    // setSpanEnd only ever extends.
    t.setSpanEnd(ctx.spanId, 0.5);
    EXPECT_DOUBLE_EQ(t.buffer().snapshot()[ctx.spanId - 1].end, 1.2);
    t.setSpanEnd(ctx.spanId, 2.0);
    EXPECT_DOUBLE_EQ(t.buffer().snapshot()[ctx.spanId - 1].end, 2.0);

    t.endLocalSpan(root, 2.0);
}

TEST(Trace, InternIsStableAndClearResets)
{
    Tracer t;
    std::uint32_t a = t.intern("alpha");
    std::uint32_t b = t.intern("beta");
    EXPECT_NE(a, b);
    EXPECT_EQ(t.intern("alpha"), a);
    EXPECT_EQ(t.internedString(b), "beta");
    // A string_view lookup finds the id a std::string interned.
    const std::string gamma = "gamma.by.string";
    std::uint32_t g = t.intern(gamma);
    EXPECT_EQ(t.intern(std::string_view("gamma.by.string.tail", 15)), g);
    EXPECT_EQ(t.intern(std::string_view(gamma)), g);

    t.beginLocalSpan("core", "op", 0.0);
    t.clear();
    EXPECT_TRUE(t.buffer().empty());
    EXPECT_TRUE(t.strings().empty());
    EXPECT_FALSE(t.current().valid());
    // Id assignment restarts, so re-running an identical scenario
    // reproduces identical interned ids.
    EXPECT_EQ(t.intern("alpha"), 0u);
}

// ---------------------------------------------------------------------
// Propagation through the simulator and network
// ---------------------------------------------------------------------

struct PingBody
{
    int x = 0;
};

/**
 * On "test.ping": reply with "test.pong" immediately and arm a timer
 * that later sends "test.late".  Both must parent under the ping
 * delivery span — the pong via the ambient delivery context, the late
 * send via the context captured into the timer slot.
 */
struct PingNode : SimNode
{
    Simulator *sim = nullptr;
    Network *net = nullptr;
    NodeId self = invalidNode;

    void
    handleMessage(const Message &msg) override
    {
        if (msg.type != "test.ping")
            return;
        NodeId peer = msg.src;
        net->send(self, peer, makeMessage("test.pong", PingBody{1}, 32));
        sim->schedule(1.0, [this, peer] {
            net->send(self, peer,
                      makeMessage("test.late", PingBody{2}, 32));
        });
    }
};

struct PingWorld
{
    Simulator sim;
    std::unique_ptr<Network> net;
    std::unique_ptr<PingNode> a, b;

    PingWorld()
    {
        NetworkConfig ncfg;
        ncfg.seed = 42;
        net = std::make_unique<Network>(sim, ncfg);
        a = std::make_unique<PingNode>();
        b = std::make_unique<PingNode>();
        for (PingNode *n : {a.get(), b.get()}) {
            n->sim = &sim;
            n->net = net.get();
        }
        a->self = net->addNode(a.get(), 0.0, 0.0);
        b->self = net->addNode(b.get(), 1.0, 1.0);
    }

    void
    run()
    {
        net->send(a->self, b->self,
                  makeMessage("test.ping", PingBody{0}, 32));
        sim.run();
    }
};

const SpanRecord *
findSpan(const Tracer &t, const std::vector<SpanRecord> &spans,
         const std::string &name)
{
    for (const SpanRecord &r : spans)
        if (t.internedString(r.name) == name)
            return &r;
    return nullptr;
}

TEST(Trace, ContextPropagatesAcrossNetworkAndTimers)
{
    Tracer tracer;
    {
        TraceScope scope(tracer);
        PingWorld world;
        world.run();
    }

    auto spans = tracer.buffer().snapshot();
    const SpanRecord *ping = findSpan(tracer, spans, "test.ping");
    const SpanRecord *pong = findSpan(tracer, spans, "test.pong");
    const SpanRecord *late = findSpan(tracer, spans, "test.late");
    ASSERT_NE(ping, nullptr);
    ASSERT_NE(pong, nullptr);
    ASSERT_NE(late, nullptr);

    // The first send roots a fresh trace.
    EXPECT_EQ(ping->parent, 0u);
    EXPECT_EQ(ping->hop, 0u);
    EXPECT_EQ(ping->kind, SpanKind::Send);
    EXPECT_GT(ping->end, ping->start); // delivery takes sim-time

    // The reply parents under the ping's delivery context.
    EXPECT_EQ(pong->traceId, ping->traceId);
    EXPECT_EQ(pong->parent, ping->spanId);
    EXPECT_EQ(pong->hop, ping->hop + 1);

    // The timer-armed send inherits the same causal parent: the
    // context was captured into the event slot when the handler armed
    // the timer, and reinstalled when it fired.
    EXPECT_EQ(late->traceId, ping->traceId);
    EXPECT_EQ(late->parent, ping->spanId);
    EXPECT_EQ(late->hop, ping->hop + 1);
    EXPECT_GT(late->start, pong->start); // fired after the 1 s timer
}

TEST(Trace, DetachedRunsRecordNothing)
{
    Tracer tracer;
    PingWorld world;
    world.run(); // no TraceScope installed
    EXPECT_TRUE(tracer.buffer().empty());
    EXPECT_EQ(Tracer::active(), nullptr);
}

TEST(Trace, ExportsAreByteIdenticalAcrossRuns)
{
    auto render = [] {
        Tracer tracer;
        {
            TraceScope scope(tracer);
            PingWorld world;
            world.run();
        }
        std::ostringstream spans, chrome;
        writeSpansJsonl(tracer, spans);
        writeChromeTrace(tracer, chrome);
        return std::make_pair(spans.str(), chrome.str());
    };
    auto a = render();
    auto b = render();
    EXPECT_FALSE(a.first.empty());
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
    // JSONL: one object per line, keyed fields present.
    EXPECT_EQ(a.first.compare(0, 10, "{\"trace\": "), 0);
    EXPECT_NE(a.first.find("\"name\": \"test.ping\""),
              std::string::npos);
    // Chrome trace is a JSON array.
    EXPECT_EQ(a.second.front(), '[');
}

// ---------------------------------------------------------------------
// PhaseProfiler
// ---------------------------------------------------------------------

TEST(Profiler, LabelsMessageTypesByComponentPrefix)
{
    PhaseProfiler p;
    auto pbft = p.labelForMessageType("pbft.prepare");
    EXPECT_EQ(p.labelForMessageType("pbft.commit"), pbft);
    EXPECT_NE(p.labelForMessageType("sec.push"), pbft);
    // No dot: the whole type is the label.
    EXPECT_EQ(p.labelForMessageType("hop"), p.intern("hop"));
    EXPECT_NE(pbft, 0); // label 0 is reserved for "(unlabeled)"
}

TEST(Profiler, AttributesEventsAndSortsStats)
{
    PhaseProfiler profiler;
    {
        ProfileScope scope(profiler);
        PingWorld world;
        // An event armed outside any delivery context lands in the
        // "(unlabeled)" bucket.
        world.sim.schedule(0.5, [] {});
        world.run();
    }

    auto stats = profiler.stats();
    ASSERT_FALSE(stats.empty());
    for (std::size_t i = 1; i < stats.size(); i++)
        EXPECT_LT(stats[i - 1].name, stats[i].name); // sorted by name

    std::uint64_t testEvents = 0, unlabeled = 0, total = 0;
    for (const auto &row : stats) {
        total += row.events;
        if (row.name == "test")
            testEvents = row.events;
        if (row.name == "(unlabeled)")
            unlabeled = row.events;
    }
    // ping/pong/late deliveries plus the inherited timer event all
    // attribute to the "test" component.
    EXPECT_GE(testEvents, 4u);
    EXPECT_GE(unlabeled, 1u);
    EXPECT_EQ(total, profiler.totalEvents());

    profiler.clear();
    EXPECT_EQ(profiler.totalEvents(), 0u);
    EXPECT_TRUE(profiler.stats().empty());
}

// ---------------------------------------------------------------------
// Flight dumps (FlightScope)
// ---------------------------------------------------------------------

/** A flight dump read back: its meta line and its span lines. */
struct FlightDump
{
    std::string meta;
    std::vector<std::string> spans;
};

FlightDump
readFlightDump(const std::string &dir, const std::string &label)
{
    FlightDump d;
    std::ifstream in(dir + "/" + label + ".flight.trace.jsonl");
    std::getline(in, d.meta);
    for (std::string line; std::getline(in, line);)
        d.spans.push_back(line);
    return d;
}

/** The number after `"<key>": ` in one JSONL line (-1 if absent). */
double
jsonNumber(const std::string &line, const std::string &key)
{
    std::size_t at = line.find("\"" + key + "\": ");
    if (at == std::string::npos)
        return -1.0;
    return std::stod(line.substr(at + key.size() + 4));
}

TEST(FlightScope, HooksCheckFailuresAndRestoresPreviousHook)
{
    Tracer tracer;
    CheckFailureHook before = checkFailureHook();
    {
        FlightScope fs(tracer, "unit");
        EXPECT_NE(checkFailureHook(), before);
        EXPECT_EQ(checkFailureHookArg(), &fs);
    }
    EXPECT_EQ(checkFailureHook(), before);
}

TEST(FlightScope, DumpHoldsTheNewestSpansInIdOrder)
{
    constexpr int kSpans = 5000;
    Tracer tracer;
    {
        TraceScope ts(tracer);
        FlightScope fs(tracer, "unit");
        for (int i = 0; i < kSpans; i++) {
            std::uint32_t s = tracer.beginLocalSpan(
                "test", "op" + std::to_string(i), i * 1.0);
            tracer.endLocalSpan(s, i * 1.0);
        }
    }
    std::string dir = ::testing::TempDir() + "flight_tail_test";
    ASSERT_TRUE(dumpFlight(tracer, dir, "tail"));

    // The dump holds spans 905..5000: the newest kFlightDumpSpans.
    FlightDump d = readFlightDump(dir, "tail");
    EXPECT_EQ(jsonNumber(d.meta, "spans"), 4096.0);
    EXPECT_EQ(jsonNumber(d.meta, "recorded"), static_cast<double>(kSpans));
    ASSERT_EQ(d.spans.size(), kFlightDumpSpans);
    for (std::size_t i = 0; i < d.spans.size(); i++)
        ASSERT_EQ(jsonNumber(d.spans[i], "span"),
                  static_cast<double>(kSpans - kFlightDumpSpans + 1 + i));
    EXPECT_NE(d.spans.front().find("\"name\": \"op904\""),
              std::string::npos);
    EXPECT_NE(d.spans.back().find("\"name\": \"op4999\""),
              std::string::npos);
}

TEST(FlightScope, DumpShowsFinalSpanEnds)
{
    Tracer tracer;
    {
        TraceScope ts(tracer);
        FlightScope fs(tracer, "unit");
        std::uint32_t local = tracer.beginLocalSpan("test", "op", 1.0);
        TraceContext mc = tracer.messageSpan(
            "test.fanout", 0, 3, 64, 1.0, 2.0, SpanKind::Multicast,
            SpanStatus::Ok);
        tracer.setSpanEnd(mc.spanId, 2.25);
        tracer.endLocalSpan(local, 3.5);
    }
    std::string dir = ::testing::TempDir() + "flight_ends_test";
    ASSERT_TRUE(dumpFlight(tracer, dir, "ends"));

    // A dump reads the one span store, so it sees every end time
    // stamped after the span was opened.
    FlightDump d = readFlightDump(dir, "ends");
    ASSERT_EQ(d.spans.size(), 2u);
    EXPECT_NE(d.spans[0].find("\"name\": \"op\""), std::string::npos);
    EXPECT_EQ(jsonNumber(d.spans[0], "end"), 3.5);
    EXPECT_NE(d.spans[1].find("\"kind\": \"multicast\""),
              std::string::npos);
    EXPECT_EQ(jsonNumber(d.spans[1], "end"), 2.25);
}

TEST(FlightScope, DumpAfterClearHoldsOnlyNewSpans)
{
    Tracer tracer;
    std::string dir = ::testing::TempDir() + "flight_clear_test";
    {
        TraceScope ts(tracer);
        FlightScope fs(tracer, "unit");
        for (int i = 0; i < 3; i++) {
            std::uint32_t s = tracer.beginLocalSpan(
                "before", "old" + std::to_string(i), i * 1.0);
            tracer.endLocalSpan(s, i * 1.0);
        }
        tracer.clear();
        std::uint32_t s = tracer.beginLocalSpan("after", "new", 5.0);
        tracer.endLocalSpan(s, 6.0);
        ASSERT_TRUE(dumpFlight(tracer, dir, "clear"));
    }

    // Span ids and intern ids restarted at the clear; every name in
    // the dump resolves against the reset table.
    FlightDump d = readFlightDump(dir, "clear");
    EXPECT_EQ(jsonNumber(d.meta, "recorded"), 1.0);
    ASSERT_EQ(d.spans.size(), 1u);
    EXPECT_EQ(jsonNumber(d.spans[0], "span"), 1.0);
    EXPECT_NE(d.spans[0].find("\"component\": \"after\""),
              std::string::npos);
    EXPECT_NE(d.spans[0].find("\"name\": \"new\""), std::string::npos);
    EXPECT_EQ(jsonNumber(d.spans[0], "end"), 6.0);
}

TEST(FlightScope, DumpWritesTraceAndMetricsFiles)
{
    Tracer tracer;
    {
        TraceScope ts(tracer);
        FlightScope fs(tracer, "unit");
        std::uint32_t s = tracer.beginLocalSpan("test", "op", 1.0);
        tracer.endLocalSpan(s, 2.0);
    }
    std::string dir = ::testing::TempDir() + "flight_dump_test";
    ASSERT_TRUE(dumpFlight(tracer, dir, "unit"));

    FlightDump d = readFlightDump(dir, "unit");
    EXPECT_NE(d.meta.find("\"meta\": \"flight\""), std::string::npos);
    EXPECT_NE(d.meta.find("\"clock\": \"wall\""), std::string::npos);
    EXPECT_EQ(jsonNumber(d.meta, "spans"), 1.0);
    EXPECT_EQ(jsonNumber(d.meta, "recorded"), 1.0);
    ASSERT_EQ(d.spans.size(), 1u);
    EXPECT_NE(d.spans[0].find("\"name\": \"op\""), std::string::npos);

    std::ifstream metrics(dir + "/unit.flight.metrics.json");
    ASSERT_TRUE(metrics.good());
    std::string all((std::istreambuf_iterator<char>(metrics)),
                    std::istreambuf_iterator<char>());
    EXPECT_NE(all.find("\"counters\""), std::string::npos);
}

using FlightScopeDeathTest = ::testing::Test;

TEST(FlightScopeDeathTest, CheckFailureDumpsBlackBox)
{
    // The death statement runs in a forked child: the FlightScope
    // installed there wires the check-failure hook, the OS_CHECK
    // aborts the child, and the dump the hook wrote survives on disk
    // for the parent to inspect — exactly the crashed-deployment
    // post-mortem flow.
    std::string dir = ::testing::TempDir() + "flight_check_test";
    ::setenv("OCEANSTORE_CHAOS_DUMP_DIR", dir.c_str(), 1);
    EXPECT_DEATH(
        {
            Tracer tracer;
            TraceScope ts(tracer);
            FlightScope fs(tracer, "blackbox");
            std::uint32_t s =
                tracer.beginLocalSpan("test", "doomed", 1.0);
            tracer.endLocalSpan(s, 1.5);
            OS_CHECK(false, "flight-dump self-test failure");
        },
        "flight-dump self-test failure");
    ::unsetenv("OCEANSTORE_CHAOS_DUMP_DIR");

    FlightDump d = readFlightDump(dir, "blackbox");
    ASSERT_FALSE(d.meta.empty())
        << "check-failure hook did not write the flight dump";
    EXPECT_NE(d.meta.find("\"meta\": \"flight\""), std::string::npos);
    ASSERT_EQ(d.spans.size(), 1u);
    EXPECT_NE(d.spans[0].find("\"name\": \"doomed\""), std::string::npos);
    EXPECT_EQ(jsonNumber(d.spans[0], "end"), 1.5);
}

TEST(FlightScope, DumpsOnMetricKindClash)
{
    // The registry checks a registration after releasing its lock, so
    // the hook's dump, which snapshots the registry, can take that
    // lock again: the child dumps and aborts rather than hanging.
    // tests/timeouts.cmake gives this test a ctest TIMEOUT, so a
    // hang fails it.
    std::string dir = ::testing::TempDir() + "flight_metric_clash_test";
    std::filesystem::remove_all(dir);
    ::setenv("OCEANSTORE_CHAOS_DUMP_DIR", dir.c_str(), 1);
    EXPECT_DEATH(
        {
            Tracer tracer;
            FlightScope fs(tracer, "clash");
            MetricsRegistry &reg = MetricsRegistry::global();
            reg.counter("t.flight.clash");
            reg.gauge("t.flight.clash");
        },
        "re-registered as a different kind");
    ::unsetenv("OCEANSTORE_CHAOS_DUMP_DIR");

    FlightDump d = readFlightDump(dir, "clash");
    EXPECT_NE(d.meta.find("\"meta\": \"flight\""), std::string::npos)
        << "check-failure hook did not write the flight dump";
    std::ifstream metrics(dir + "/clash.flight.metrics.json");
    std::string all((std::istreambuf_iterator<char>(metrics)),
                    std::istreambuf_iterator<char>());
    EXPECT_NE(all.find("\"t.flight.clash\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Thread-safety of the obs hot paths (meaningful under TSan)
// ---------------------------------------------------------------------

TEST(ObsConcurrency, SpansMetricsAndFlightDumpsFromManyThreads)
{
    Tracer tracer;
    MetricsRegistry reg;
    auto counter = reg.counter("t.conc.count");
    auto gauge = reg.gauge("t.conc.level");
    auto hist = reg.histogram("t.conc.lat", 0.0, 1.0, 10);
    std::string dir = ::testing::TempDir() + "flight_conc_test";

    constexpr int kThreads = 4;
    constexpr int kSpansPerThread = 500;
    {
        TraceScope ts(tracer);
        FlightScope fs(tracer, "conc");
        std::atomic<int> done{0};
        std::vector<std::thread> pool;
        for (int t = 0; t < kThreads; t++) {
            pool.emplace_back([&, t] {
                for (int i = 0; i < kSpansPerThread; i++) {
                    std::uint32_t s = tracer.beginLocalSpan(
                        "test", "thread" + std::to_string(t),
                        i * 0.001);
                    tracer.setSpanEnd(s, i * 0.001 + 0.0005);
                    tracer.endLocalSpan(s, i * 0.001 + 0.001);
                    reg.inc(counter);
                    reg.set(gauge, static_cast<double>(i));
                    reg.observe(hist, (i % 10) * 0.1);
                }
                done.fetch_add(1);
            });
        }
        // The dump path reads the span store while it is written.
        bool dumped = true;
        while (done.load() < kThreads)
            dumped = dumpFlight(tracer, dir, "conc") && dumped;
        for (auto &th : pool)
            th.join();
        EXPECT_TRUE(dumped);
    }

    // Every span was appended exactly once, and the snapshot carries
    // each id exactly once, in order.
    auto spans = tracer.buffer().snapshot();
    ASSERT_EQ(spans.size(),
              static_cast<std::size_t>(kThreads * kSpansPerThread));
    for (std::size_t i = 0; i < spans.size(); i++)
        EXPECT_EQ(spans[i].spanId, static_cast<std::uint32_t>(i + 1));
    EXPECT_EQ(reg.counterValue("t.conc.count"),
              static_cast<std::uint64_t>(kThreads * kSpansPerThread));
    EXPECT_EQ(reg.snapshot().histograms.at("t.conc.lat").total,
              static_cast<std::uint64_t>(kThreads * kSpansPerThread));
    ASSERT_TRUE(dumpFlight(tracer, dir, "conc"));
    FlightDump d = readFlightDump(dir, "conc");
    EXPECT_EQ(d.spans.size(), spans.size());
    EXPECT_EQ(jsonNumber(d.meta, "recorded"),
              static_cast<double>(spans.size()));
}

// ---------------------------------------------------------------------
// End-to-end: the causal chain of one committed update
// ---------------------------------------------------------------------

/** Names along the root-to-span ancestor path, root first.  @p spans
 *  must be a snapshot of the leaf's buffer (sorted by span id; ids
 *  are sequential in a single-threaded run, so id - 1 indexes it). */
std::vector<std::string>
ancestorNames(const Tracer &t, const std::vector<SpanRecord> &spans,
              const SpanRecord &leaf)
{
    std::vector<std::string> names;
    const SpanRecord *cur = &leaf;
    for (;;) {
        names.insert(names.begin(), t.internedString(cur->name));
        if (cur->parent == 0)
            break;
        cur = &spans[cur->parent - 1];
    }
    return names;
}

/** True when @p expected appears as a subsequence of @p path. */
bool
isSubsequence(const std::vector<std::string> &expected,
              const std::vector<std::string> &path)
{
    std::size_t i = 0;
    for (const std::string &name : path)
        if (i < expected.size() && name == expected[i])
            i++;
    return i == expected.size();
}

TEST(Trace, ReconstructsCommittedUpdateCausalChain)
{
    UniverseConfig cfg;
    cfg.numServers = 24;
    cfg.archiveDataFragments = 4;
    cfg.archiveTotalFragments = 8;
    Universe universe(cfg);
    KeyPair owner = universe.makeUser();
    ObjectHandle doc = universe.createObject(owner, "trace/chain.txt");

    Tracer tracer;
    WriteResult wr;
    {
        TraceScope scope(tracer);
        Update u = doc.makeAppendUpdate(toBytes("payload"),
                                        /*expected_version=*/0,
                                        Timestamp{1, 1});
        wr = universe.writeSync(u);
        universe.advance(5.0); // secondary-tier pushes + acks
    }
    ASSERT_TRUE(wr.committed);
    ASSERT_FALSE(tracer.buffer().empty());

    // The ISSUE acceptance criterion: client submit -> pre-prepare ->
    // commit -> push -> ack must be reconstructible as one causal
    // ancestor chain (intermediate hops like pbft.prepare may appear
    // between the named stages).
    const std::vector<std::string> chain = {
        "client.submit", "pbft.request", "pbft.preprepare",
        "pbft.commit",   "sec.push",     "sec.ack",
    };
    bool found = false;
    auto spans = tracer.buffer().snapshot();
    for (const SpanRecord &r : spans) {
        if (tracer.internedString(r.name) != chain.back())
            continue;
        if (isSubsequence(chain, ancestorNames(tracer, spans, r))) {
            found = true;
            break;
        }
    }
    EXPECT_TRUE(found)
        << "no sec.ack span carries the full commit chain in its "
           "ancestry (" << tracer.buffer().size() << " spans recorded)";
}

} // namespace
} // namespace oceanstore
