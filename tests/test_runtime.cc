/**
 * @file
 * Runtime conformance suite (DESIGN.md section 15).
 *
 * One parameterized set of behavioral contracts run against BOTH
 * kinds of Runtime: the deterministic sim kind and the wall-clock
 * paced (threaded) kind.  The contracts are ported from the
 * simulated-network tests (self-send asynchrony and FIFO, per-link
 * FIFO, multicast delivery accounting)
 * plus the timer/clock guarantees protocol code leans on, so a
 * kind that passes here can host the protocol tiers unmodified.
 *
 * Threaded cases use generous wall-clock budgets; predicates that
 * read handler state are evaluated through Runtime::runUntil, which
 * holds the loop mutex while it evaluates them, so no extra
 * synchronization is needed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/export.h"
#include "obs/trace.h"
#include "runtime/framing.h"
#include "runtime/runtime.h"
#include "runtime/stats.h"
#include "sim/fault.h"

namespace oceanstore {
namespace {

/** Records every delivered message (handlers run on the loop). */
class Sink : public SimNode
{
  public:
    void
    handleMessage(const Message &msg) override
    {
        received.push_back(msg);
    }

    std::vector<Message> received;
};

// One concrete class: a virtual method must not come back.
static_assert(!std::is_polymorphic_v<Runtime>);

/** A runtime under test, with the Simulator + Network pair it wraps
 *  (declared first, so the runtime stops before they die). */
struct Backend
{
    explicit Backend(RuntimeKind kind)
        : net(sim, kind == RuntimeKind::Sim ? simNetwork()
                                            : loopbackNetwork),
          rt(sim, net, 0x5eedu, kind)
    {
    }

    static NetworkConfig
    simNetwork()
    {
        NetworkConfig cfg;
        cfg.jitter = 0.0;
        cfg.bandwidth = 0.0; // infinite
        return cfg;
    }

    Simulator sim;
    Network net;
    Runtime rt;
};

/** Wall/sim seconds each test may spend driving the runtime. */
constexpr double kBudget = 20.0;

class RuntimeConformance
    : public ::testing::TestWithParam<const char *>
{
  protected:
    void
    SetUp() override
    {
        kind_ = std::string(GetParam()) == "threaded" ? RuntimeKind::Threaded
                                                      : RuntimeKind::Sim;
        be_ = std::make_unique<Backend>(kind_);
        a_ = rt().addNode(&na_, 0.0, 0.0);
        b_ = rt().addNode(&nb_, 1.0, 0.0);
        c_ = rt().addNode(&nc_, 0.0, 1.0);
    }

    void
    TearDown() override
    {
        if (be_)
            be_->rt.shutdown(); // threads die before the sinks do
    }

    Runtime &rt() { return be_->rt; }

    /** Drive until @p pred holds; fail the test on timeout. */
    bool
    drive(const std::function<bool()> &pred)
    {
        return rt().runUntil(pred, rt().now() + kBudget);
    }

    Sink na_, nb_, nc_;
    NodeId a_{}, b_{}, c_{};
    RuntimeKind kind_ = RuntimeKind::Sim;
    std::unique_ptr<Backend> be_;
};

TEST_P(RuntimeConformance, SelfSendStillAsynchronous)
{
    // Delivery must never run inside send(): the loop mutex (or the
    // sim event loop) is held across this whole block, so any inline
    // delivery would land in received before the check.
    bool delivered_inline = true;
    rt().execute([&]() {
        rt().send(a_, a_, makeMessage("t", 1, 1));
        delivered_inline = !na_.received.empty();
    });
    EXPECT_FALSE(delivered_inline);
    EXPECT_TRUE(drive([&]() { return na_.received.size() == 1; }));
}

TEST_P(RuntimeConformance, SelfSendsDeliverInFifoOrder)
{
    // Equal-latency messages on one link must arrive in send order:
    // with no jitter the simulator breaks timestamp ties FIFO.
    rt().execute([&]() {
        for (int i = 0; i < 8; i++)
            rt().send(a_, a_, makeMessage("t", i, 1));
    });
    ASSERT_TRUE(drive([&]() { return na_.received.size() == 8; }));
    for (int i = 0; i < 8; i++)
        EXPECT_EQ(messageBody<int>(na_.received[i]), i);
}

TEST_P(RuntimeConformance, PerLinkSendsNeverReorder)
{
    rt().execute([&]() {
        for (int i = 0; i < 16; i++)
            rt().send(a_, b_, makeMessage("t", i, 64));
    });
    ASSERT_TRUE(drive([&]() { return nb_.received.size() == 16; }));
    for (int i = 0; i < 16; i++)
        EXPECT_EQ(messageBody<int>(nb_.received[i]), i);
}

TEST_P(RuntimeConformance, MulticastDeliversOncePerDestination)
{
    std::uint64_t msgs0 = rt().totalMessages();
    std::uint64_t bytes0 = rt().totalBytes();
    rt().execute([&]() {
        rt().multicast(a_, {b_, c_, a_}, makeMessage("m", 7, 10));
    });
    ASSERT_TRUE(drive([&]() {
        return na_.received.size() == 1 && nb_.received.size() == 1 &&
               nc_.received.size() == 1;
    }));
    // Accounting is per destination: three sends' worth of messages
    // and bytes, even though the payload is stored once.
    EXPECT_EQ(rt().totalMessages() - msgs0, 3u);
    std::uint64_t per_dest = (rt().totalBytes() - bytes0) / 3;
    EXPECT_GT(per_dest, 0u);
    EXPECT_EQ((rt().totalBytes() - bytes0) % 3, 0u);
    EXPECT_EQ(messageBody<int>(nb_.received[0]), 7);
}

TEST_P(RuntimeConformance, DownDestinationLosesMessageButCountsBytes)
{
    std::uint64_t bytes0 = rt().totalBytes();
    rt().setDown(b_);
    rt().execute([&]() {
        rt().send(a_, b_, makeMessage("t", 1, 10));
    });
    // The flight resolves (dropped at arrival) without a delivery;
    // bytes were still charged at send time — the sender cannot know.
    ASSERT_TRUE(drive([&]() { return rt().inFlight() == 0; }));
    EXPECT_TRUE(nb_.received.empty());
    EXPECT_GT(rt().totalBytes(), bytes0);
    rt().setUp(b_);
    rt().execute([&]() {
        rt().send(a_, b_, makeMessage("t", 2, 10));
    });
    EXPECT_TRUE(drive([&]() { return nb_.received.size() == 1; }));
}

TEST_P(RuntimeConformance, TimersFireInDeadlineOrder)
{
    std::vector<int> order;
    rt().execute([&]() {
        rt().schedule(0.09, [&order]() { order.push_back(3); });
        rt().schedule(0.03, [&order]() { order.push_back(1); });
        rt().schedule(0.06, [&order]() { order.push_back(2); });
        rt().schedule(0.0, [&order]() { order.push_back(0); });
    });
    ASSERT_TRUE(drive([&]() { return order.size() == 4; }));
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST_P(RuntimeConformance, CancelledTimerNeverFires)
{
    bool cancelled_fired = false;
    bool marker_fired = false;
    rt().execute([&]() {
        EventId id = rt().schedule(
            0.05, [&cancelled_fired]() { cancelled_fired = true; });
        rt().cancel(id);
        rt().schedule(0.15, [&marker_fired]() { marker_fired = true; });
    });
    ASSERT_TRUE(drive([&]() { return marker_fired; }));
    EXPECT_FALSE(cancelled_fired);
}

TEST_P(RuntimeConformance, CancelFromCoDueCallbackPreventsFiring)
{
    // Two timers due at the same instant: the first cancels the
    // second after both are already due (threaded backend: both past
    // their deadline before the loop fires either).  RpcCall
    // destructors and the failure detectors rely on
    // cancel-prevents-fire in exactly this window — a due-but-not-run
    // victim must stay dead.
    bool cancelled_fired = false;
    bool marker_fired = false;
    EventId victim = invalidEventId;
    rt().execute([&]() {
        // Canceller scheduled first so it wins the same-deadline
        // tie-break and runs before its co-due victim.
        rt().schedule(0.02, [&]() { rt().cancel(victim); });
        victim = rt().schedule(
            0.02, [&cancelled_fired]() { cancelled_fired = true; });
        rt().schedule(0.2,
                      [&marker_fired]() { marker_fired = true; });
    });
    ASSERT_TRUE(drive([&]() { return marker_fired; }));
    EXPECT_FALSE(cancelled_fired);
}

TEST_P(RuntimeConformance, PostRunsAfterAlreadyQueuedWork)
{
    std::vector<int> order;
    rt().execute([&]() {
        rt().post([&order]() { order.push_back(0); });
        rt().post([&order]() { order.push_back(1); });
    });
    ASSERT_TRUE(drive([&]() { return order.size() == 2; }));
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST_P(RuntimeConformance, ClockIsMonotoneAcrossCallbacks)
{
    std::vector<double> stamps;
    bool done = false;
    std::function<void()> step = [&]() {
        stamps.push_back(rt().now());
        if (stamps.size() >= 10) {
            done = true;
            return;
        }
        rt().schedule(0.002, [&step]() { step(); });
    };
    rt().execute([&]() { rt().schedule(0.0, [&step]() { step(); }); });
    ASSERT_TRUE(drive([&]() { return done; }));
    for (std::size_t i = 1; i < stamps.size(); i++)
        EXPECT_GE(stamps[i], stamps[i - 1]);
}

TEST_P(RuntimeConformance, GeometryAndLivenessAccessors)
{
    EXPECT_EQ(rt().nodeCount(), 3u);
    EXPECT_DOUBLE_EQ(rt().xOf(b_), 1.0);
    EXPECT_DOUBLE_EQ(rt().yOf(c_), 1.0);
    EXPECT_DOUBLE_EQ(rt().distance(a_, b_), 1.0);
    EXPECT_GT(rt().latency(a_, b_), rt().latency(a_, a_));
    EXPECT_DOUBLE_EQ(rt().latency(a_, b_), rt().latency(b_, a_));
    EXPECT_TRUE(rt().isUp(a_));
    rt().setDown(a_);
    EXPECT_FALSE(rt().isUp(a_));
    rt().setUp(a_);
    EXPECT_TRUE(rt().isUp(a_));
}

TEST_P(RuntimeConformance, MixSeedIsStableAndSaltSensitive)
{
    // Identical on both backends (both were built with base seed
    // 0x5eed), so seeded components replay across runtimes.
    EXPECT_EQ(rt().mixSeed(42), mixSeed64(0x5eedu, 42));
    EXPECT_NE(rt().mixSeed(1), rt().mixSeed(2));
    EXPECT_EQ(rt().mixSeed(7), rt().mixSeed(7));
}

TEST_P(RuntimeConformance, UniqueStampIsMonotone)
{
    std::uint64_t s0 = rt().uniqueStamp();
    bool fired = false;
    rt().execute([&]() {
        rt().schedule(0.0, [&fired]() { fired = true; });
    });
    ASSERT_TRUE(drive([&]() { return fired; }));
    EXPECT_GE(rt().uniqueStamp(), s0);
}

TEST_P(RuntimeConformance, TraceContextPropagatesThroughBackend)
{
    // The observability contract (DESIGN.md section 16): a timer, a
    // posted task and a delivered message all run inside the trace
    // context of the code that scheduled/sent them, on BOTH backends.
    Tracer tracer;
    TraceContext timerCtx, postCtx, deliveredCtx;
    bool timerDone = false, postDone = false;
    {
        TraceScope scope(tracer);
        rt().execute([&]() {
            std::uint32_t root =
                tracer.beginLocalSpan("test", "root", rt().now());
            rt().send(a_, b_, makeMessage("t.msg", 1, 32));
            rt().schedule(0.01, [&]() {
                timerCtx = tracer.current();
                timerDone = true;
            });
            rt().post([&]() {
                postCtx = tracer.current();
                postDone = true;
            });
            tracer.endLocalSpan(root, rt().now());
        });
        ASSERT_TRUE(drive([&]() {
            return nb_.received.size() == 1 && timerDone && postDone;
        }));
        rt().execute([&]() { deliveredCtx = nb_.received[0].trace; });
    }

    auto spans = tracer.buffer().snapshot();
    const SpanRecord *rootSpan = nullptr;
    const SpanRecord *msgSpan = nullptr;
    for (const SpanRecord &r : spans) {
        if (tracer.internedString(r.name) == "root")
            rootSpan = &r;
        if (tracer.internedString(r.name) == "t.msg")
            msgSpan = &r;
    }
    ASSERT_NE(rootSpan, nullptr);
    ASSERT_NE(msgSpan, nullptr);
    // The send span parents under the root scope, and the delivered
    // message carried exactly that span as its causal context.
    EXPECT_EQ(msgSpan->parent, rootSpan->spanId);
    EXPECT_EQ(msgSpan->kind, SpanKind::Send);
    EXPECT_GE(msgSpan->end, msgSpan->start);
    EXPECT_EQ(deliveredCtx.traceId, msgSpan->traceId);
    EXPECT_EQ(deliveredCtx.spanId, msgSpan->spanId);
    // Timer and post callbacks ran inside the root's context.
    EXPECT_EQ(timerCtx.traceId, rootSpan->traceId);
    EXPECT_EQ(timerCtx.spanId, rootSpan->spanId);
    EXPECT_EQ(postCtx.traceId, rootSpan->traceId);
    EXPECT_EQ(postCtx.spanId, rootSpan->spanId);
}

TEST_P(RuntimeConformance, StatsExposeLiveBackendHealth)
{
    bool fired = false;
    rt().execute([&]() {
        rt().schedule(5.0, []() {}); // stays pending past the test
        rt().send(a_, b_, makeMessage("t", 1, 32));
        RuntimeStats mid = rt().stats();
        EXPECT_GE(mid.timersPending, 1u);
        EXPECT_GE(mid.linkQueuedMessages, 1u);
        // Only events already due count as queued work: the 5 s timer
        // and the in-flight delivery are still in the future.
        EXPECT_EQ(mid.strandQueueDepth, 0u);
        EXPECT_EQ(mid.workers, rt().deterministic() ? 0u : 1u);
        rt().schedule(0.0, [&]() { fired = true; });
    });
    ASSERT_TRUE(
        drive([&]() { return fired && nb_.received.size() == 1; }));

    RuntimeStats after = rt().stats();
    EXPECT_EQ(after.linkQueuedMessages, 0u);
    EXPECT_GE(after.tasksExecuted, 1u);
    EXPECT_GE(after.uptime, 0.0);
    EXPECT_GE(after.timersPending, 1u); // the 5 s timer

    // The published/rendered forms agree with the struct.
    publishRuntimeStats(after);
    EXPECT_DOUBLE_EQ(MetricsRegistry::global().gaugeValue(
                         "runtime.timers_pending"),
                     static_cast<double>(after.timersPending));
    std::ostringstream out;
    writeRuntimeStatsJson(after, out);
    EXPECT_EQ(out.str().front(), '{');
    EXPECT_NE(out.str().find("\"timers_pending\": "),
              std::string::npos);
    EXPECT_NE(out.str().find("\"worker_utilization\": "),
              std::string::npos);
}

TEST_P(RuntimeConformance, ScheduleAtInThePastRunsPromptly)
{
    // Runtime::scheduleAt clamps a past deadline to now on both
    // backends (the Simulator itself still rejects one).
    rt().advance(0.01);
    bool fired = false;
    double calledNow = 0.0, firedNow = -1.0;
    rt().execute([&]() {
        calledNow = rt().now();
        rt().scheduleAt(calledNow - 0.005, [&]() {
            firedNow = rt().now();
            fired = true;
        });
    });
    ASSERT_TRUE(drive([&]() { return fired; }));
    EXPECT_GE(firedNow, calledNow);
    EXPECT_LT(firedNow - calledNow, 1.0);
}

TEST_P(RuntimeConformance, IdleClockCatchesUpBeforeClientSchedules)
{
    // After an idle stretch, a timer a client thread schedules must
    // be timed from the present, not from the last event the loop
    // fired: a stale clock would fire it early.
    bool warm = false;
    rt().execute([&]() { rt().schedule(0.0, [&warm]() { warm = true; }); });
    ASSERT_TRUE(drive([&]() { return warm; }));
    rt().advance(0.05);

    using Clock = std::chrono::steady_clock;
    Clock::time_point calledAt = Clock::now(), firedAt{};
    double calledNow = rt().now(), firedNow = -1.0;
    bool fired = false;
    rt().schedule(0.02, [&]() {
        firedAt = Clock::now();
        firedNow = rt().now();
        fired = true;
    });
    ASSERT_TRUE(drive([&]() { return fired; }));
    EXPECT_GE(firedNow - calledNow, 0.02 - 1e-9);
    if (!rt().deterministic()) {
        EXPECT_GE(firedAt - calledAt, std::chrono::milliseconds(20));
    }
}

TEST_P(RuntimeConformance, FaultPlanDropsAndPartitionsThroughNetwork)
{
    // A FaultPlan reaches the transport on both backends: a per-link
    // drop of 1.0 silences a->b, and one partition/heal cycle loses
    // a->c traffic only while c is split away.  The partition times
    // are offsets from now(), and the injector is armed and destroyed
    // inside execute().
    std::unique_ptr<FaultInjector> inj;
    bool healedSend = false;
    rt().execute([&]() {
        double t = rt().now();
        FaultPlan plan;
        plan.links.push_back({a_, b_, 1.0});
        plan.partitions.push_back({t + 0.05, t + 0.3, {c_}});
        inj = std::make_unique<FaultInjector>(be_->sim, be_->net, plan);
        inj->arm();
        for (int i = 0; i < 4; i++)
            rt().send(a_, b_, makeMessage("t", i, 8));
        // Arrives before the heal on both link models: lost.
        rt().schedule(0.06, [&]() {
            rt().send(a_, c_, makeMessage("t", 1, 8));
        });
        rt().schedule(0.35, [&]() {
            rt().send(a_, c_, makeMessage("t", 2, 8));
            healedSend = true;
        });
    });
    ASSERT_TRUE(drive([&]() {
        return healedSend && nc_.received.size() == 1 &&
               rt().inFlight() == 0;
    }));
    rt().execute([&]() {
        EXPECT_TRUE(nb_.received.empty());
        EXPECT_EQ(messageBody<int>(nc_.received[0]), 2);
        EXPECT_EQ(inj->dropped(), 4u);
        inj.reset();
    });
}

TEST_P(RuntimeConformance, ShutdownIsIdempotentAndStopsOnlyAPacer)
{
    // Timers spread past the shutdown below: on the paced kind the
    // first few may fire before it, none may fire after it.
    std::atomic<bool> stopped{false};
    std::atomic<int> fired{0}, firedAfterStop{0};
    rt().execute([&]() {
        for (int i = 0; i < 8; i++)
            rt().schedule(0.02 * i, [&]() {
                fired++;
                if (stopped)
                    firedAfterStop++;
            });
    });
    rt().advance(0.02);
    rt().shutdown();
    stopped = true;
    rt().shutdown(); // idempotent: returns at once

    if (kind_ == RuntimeKind::Sim) {
        // No pacer to stop: the caller still steps every timer.
        EXPECT_TRUE(drive([&]() { return fired == 8; }));
    } else {
        // Past the last deadline: the joined loop fired nothing more.
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
        EXPECT_EQ(firedAfterStop, 0);
    }

    // A runtime destroyed without shutdown() stops its own loop
    // before the pair it wraps and the sink it delivers to die.
    Sink sink;
    std::atomic<int> late{0};
    {
        Backend scoped(kind_);
        NodeId n = scoped.rt.addNode(&sink, 0.5, 0.5);
        scoped.rt.execute([&]() {
            for (int i = 0; i < 32; i++) {
                scoped.rt.schedule(0.001 * i, [&late]() { late++; });
                scoped.rt.send(n, n, makeMessage("t", i, 8));
            }
        });
        scoped.rt.advance(0.01);
    }
    int seen = late;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(late, seen);
}

INSTANTIATE_TEST_SUITE_P(Backends, RuntimeConformance,
                         ::testing::Values("sim", "threaded"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

TEST(PacedRuntime, BusyCallerDoesNotStarveTheLoop)
{
    // One thread enters back to back for 300 ms while a chain of 1 ms
    // timers runs; like a Universe entry point, each entry leaves work
    // behind (one posted task).  A handoff lets in only the callers
    // queued when it began, and the loop then fires what was due when
    // it began, so at least half the chain must fire in the window.
    // A loop that yields for as long as anyone waits falls behind the
    // posts and fires almost none.
    Simulator sim;
    Network net(sim, loopbackNetwork);
    Runtime rt(sim, net, 0x5eedu, RuntimeKind::Threaded);
    std::atomic<int> fired{0};
    std::atomic<bool> chain{true};
    std::function<void()> tick = [&]() {
        fired.fetch_add(1);
        if (chain.load())
            rt.schedule(0.001, tick);
    };
    rt.execute([&]() { rt.schedule(0.001, tick); });

    std::atomic<bool> spin{true};
    std::thread busy([&]() {
        while (spin.load())
            rt.execute([&]() { rt.post([]() {}); });
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    int during = fired.load();
    spin.store(false);
    busy.join();
    chain.store(false);
    rt.shutdown();
    EXPECT_GE(during, 150);
}

// ---------------------------------------------------------------------
// Periodic export and the traced concurrent-client smoke
// ---------------------------------------------------------------------

TEST(RuntimeStatsExport, PeriodicExporterTicksAndStops)
{
    Backend be(RuntimeKind::Sim);
    int ticks = 0;
    PeriodicStatsExporter exporter(
        be.rt, 0.5,
        [&](const RuntimeStats &s, const MetricsSnapshot &snap) {
            ticks++;
            EXPECT_GE(s.uptime, 0.0);
            // The sink sees gauges already published for this tick.
            EXPECT_TRUE(snap.gauges.count("runtime.timers_pending"));
        });
    exporter.start();
    be.rt.advance(2.6);
    EXPECT_GE(ticks, 4);
    exporter.stop();
    int after = ticks;
    be.rt.advance(2.0);
    EXPECT_EQ(ticks, after); // stopped: the timer chain is dead
}

TEST(ThreadedTraced, ConcurrentClientsWithTracingAndLiveStats)
{
    // The tentpole acceptance scenario: >= 4 concurrent client
    // threads drive a traced threaded runtime while another thread
    // polls live stats — TSan-clean, every span accounted for.
    constexpr int kClients = 4;
    constexpr int kSendsPerClient = 50;

    Tracer tracer;
    std::vector<Sink> sinks(kClients);
    Simulator sim;
    Network net(sim, loopbackNetwork);
    Runtime rt(sim, net, 0x5eedu, RuntimeKind::Threaded);
    std::vector<NodeId> ids;
    for (int i = 0; i < kClients; i++)
        ids.push_back(rt.addNode(&sinks[i], 0.2 * i, 0.5));

    {
        TraceScope ts(tracer);
        FlightScope fs(tracer, "traced_smoke");
        std::atomic<int> done{0};
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; c++) {
            clients.emplace_back([&, c]() {
                for (int i = 0; i < kSendsPerClient; i++) {
                    rt.execute([&]() {
                        rt.send(ids[c], ids[(c + 1) % kClients],
                                makeMessage("smoke.msg", i, 64));
                    });
                }
                done.fetch_add(1);
            });
        }
        // Live introspection concurrent with the serve path.
        while (done.load() < kClients) {
            publishRuntimeStats(rt.stats());
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
        for (auto &t : clients)
            t.join();
        EXPECT_TRUE(rt.runUntil(
            [&]() {
                std::size_t total = 0;
                for (const Sink &s : sinks)
                    total += s.received.size();
                return total == static_cast<std::size_t>(
                                    kClients * kSendsPerClient);
            },
            rt.now() + 20.0));
    }
    rt.shutdown();

    // Client threads and the loop share one span store: every span id
    // present exactly once, in order, and a flight dump's tail is its
    // newest spans.
    auto spans = tracer.buffer().snapshot();
    EXPECT_GE(spans.size(), static_cast<std::size_t>(
                                kClients * kSendsPerClient));
    for (std::size_t i = 0; i < spans.size(); i++)
        EXPECT_EQ(spans[i].spanId, static_cast<std::uint32_t>(i + 1));
    auto tail = tracer.buffer().tail(kFlightDumpSpans);
    ASSERT_EQ(tail.size(), std::min(spans.size(), kFlightDumpSpans));
    EXPECT_EQ(tail.back().spanId, spans.back().spanId);

    RuntimeStats fin = rt.stats();
    EXPECT_EQ(fin.linkQueuedMessages, 0u);
    EXPECT_GE(fin.tasksExecuted, 1u);
    EXPECT_GT(fin.workerUtilization, 0.0);
}

// ---------------------------------------------------------------------
// Framing: the socket-ready wire format the threaded runtime attaches
// to the Network (encode per transmission, decode + CRC-verify at
// every delivery).

Message
sampleMessage()
{
    Message m = makeMessage("pbft.prepare", 17, 96);
    m.src = 5;
    m.nonce = 0xabcdef0123456789ull;
    m.destGuid = Guid::hashOf("frame-target");
    return m;
}

TEST(Framing, RoundTripPreservesHeaderFields)
{
    Message m = sampleMessage();
    Bytes frame = encodeFrame(m);
    auto hdr = decodeFrame(frame);
    ASSERT_TRUE(hdr.has_value());
    EXPECT_EQ(hdr->type, m.type);
    EXPECT_EQ(hdr->src, m.src);
    EXPECT_EQ(hdr->nonce, m.nonce);
    EXPECT_EQ(hdr->destGuid, m.destGuid);
    EXPECT_EQ(hdr->payloadLen, m.wireSize);
}

TEST(Framing, CorruptionIsDetectedByCrc)
{
    Bytes frame = encodeFrame(sampleMessage());
    for (std::size_t i = 0; i < frame.size(); i++) {
        Bytes bad = frame;
        bad[i] ^= 0x40;
        EXPECT_FALSE(decodeFrame(bad).has_value())
            << "flip at byte " << i << " went undetected";
    }
}

TEST(Framing, EveryOneAndTwoBitFlipIsRejected)
{
    // CRC-32 has Hamming distance of at least 4 at this length, so it
    // detects every one- and two-bit error in the header and the
    // checksum field alike; the structural checks reject some flips
    // earlier, which changes nothing about the outcome.
    const Bytes frame = encodeFrame(sampleMessage());
    const std::size_t bits = frame.size() * 8;
    Bytes bad = frame;
    auto flip = [&bad](std::size_t bit) {
        bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    };
    for (std::size_t i = 0; i < bits; i++) {
        flip(i);
        ASSERT_FALSE(decodeFrame(bad).has_value()) << "bit " << i;
        for (std::size_t j = i + 1; j < bits; j++) {
            flip(j);
            ASSERT_FALSE(decodeFrame(bad).has_value())
                << "bits " << i << " and " << j;
            flip(j);
        }
        flip(i);
    }
    EXPECT_EQ(bad, frame);
}

TEST(Framing, TruncationAndTrailingGarbageAreRejected)
{
    Bytes frame = encodeFrame(sampleMessage());
    for (std::size_t n = 0; n < frame.size(); n += 7) {
        Bytes cut(frame.begin(),
                  frame.begin() + static_cast<std::ptrdiff_t>(n));
        EXPECT_FALSE(decodeFrame(cut).has_value());
    }
    Bytes extra = frame;
    extra.push_back(0);
    EXPECT_FALSE(decodeFrame(extra).has_value());
}

TEST(Framing, EmptyAndBadMagicAreRejected)
{
    EXPECT_FALSE(decodeFrame(Bytes{}).has_value());
    Bytes frame = encodeFrame(sampleMessage());
    frame[0] ^= 0xff;
    EXPECT_FALSE(decodeFrame(frame).has_value());
}

} // namespace
} // namespace oceanstore
