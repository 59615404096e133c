/** @file Simulated network tests. */

#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.h"
#include "sim/fault.h"
#include "sim/network.h"

namespace oceanstore {
namespace {

/** Records every delivered message. */
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

struct NetFixture : public ::testing::Test
{
    NetFixture()
    {
        NetworkConfig cfg;
        cfg.jitter = 0.0;
        cfg.bandwidth = 0.0; // infinite
        net = std::make_unique<Network>(sim, cfg);
        a = net->addNode(&na, 0.0, 0.0);
        b = net->addNode(&nb, 1.0, 0.0);
    }

    Simulator sim;
    std::unique_ptr<Network> net;
    Sink na, nb;
    NodeId a{}, b{};
};

TEST_F(NetFixture, DeliversWithGeometricLatency)
{
    net->send(a, b, makeMessage("t", 1, 10));
    sim.run();
    ASSERT_EQ(nb.received.size(), 1u);
    // base 0.005 + distance 1.0 * 0.1.
    EXPECT_NEAR(sim.now(), 0.105, 1e-9);
    EXPECT_EQ(nb.received[0].src, a);
}

TEST_F(NetFixture, LatencyIsSymmetric)
{
    EXPECT_DOUBLE_EQ(net->latency(a, b), net->latency(b, a));
    EXPECT_DOUBLE_EQ(net->latency(a, a), 0.0);
}

TEST_F(NetFixture, CountsBytesIncludingHeader)
{
    net->send(a, b, makeMessage("t", 1, 100));
    EXPECT_EQ(net->totalBytes(), 100 + messageHeaderBytes);
    EXPECT_EQ(net->totalMessages(), 1u);
}

TEST_F(NetFixture, PerTypeByteCounters)
{
    net->send(a, b, makeMessage("x", 1, 10));
    net->send(a, b, makeMessage("x", 1, 10));
    net->send(a, b, makeMessage("y", 1, 20));
    EXPECT_EQ(net->bytesByType().at("x"), 2 * (10 + messageHeaderBytes));
    EXPECT_EQ(net->bytesByType().at("y"), 20 + messageHeaderBytes);
}

TEST_F(NetFixture, DownDestinationLosesMessage)
{
    net->setDown(b);
    net->send(a, b, makeMessage("t", 1, 10));
    sim.run();
    EXPECT_TRUE(nb.received.empty());
    // Bytes still counted: the sender transmitted.
    EXPECT_GT(net->totalBytes(), 0u);
}

TEST_F(NetFixture, DownSenderCannotTransmit)
{
    net->setDown(a);
    net->send(a, b, makeMessage("t", 1, 10));
    sim.run();
    EXPECT_TRUE(nb.received.empty());
}

TEST_F(NetFixture, RecoveryRestoresDelivery)
{
    net->setDown(b);
    net->setUp(b);
    net->send(a, b, makeMessage("t", 1, 10));
    sim.run();
    EXPECT_EQ(nb.received.size(), 1u);
}

TEST_F(NetFixture, PartitionBlocksCrossTraffic)
{
    net->setPartition(a, 1);
    net->send(a, b, makeMessage("t", 1, 10));
    sim.run();
    EXPECT_TRUE(nb.received.empty());

    net->healPartitions();
    net->send(a, b, makeMessage("t", 1, 10));
    sim.run();
    EXPECT_EQ(nb.received.size(), 1u);
}

TEST_F(NetFixture, SelfSendStillAsynchronous)
{
    bool delivered_inline = true;
    net->send(a, a, makeMessage("t", 1, 1));
    delivered_inline = !na.received.empty();
    sim.run();
    EXPECT_FALSE(delivered_inline);
    EXPECT_EQ(na.received.size(), 1u);
}

TEST(Network, DropRateDropsRoughlyThatFraction)
{
    Simulator sim;
    NetworkConfig cfg;
    cfg.jitter = 0;
    Network net(sim, cfg);
    FaultInjector inj(sim, net, FaultPlan{.drop = 0.5});
    inj.arm();
    Sink sa, sb;
    NodeId a = net.addNode(&sa, 0, 0);
    NodeId b = net.addNode(&sb, 0.1, 0);
    for (int i = 0; i < 1000; i++)
        net.send(a, b, makeMessage("t", 1, 1));
    sim.run();
    EXPECT_GT(sb.received.size(), 350u);
    EXPECT_LT(sb.received.size(), 650u);
}

TEST(Network, BandwidthAddsTransferTime)
{
    Simulator sim;
    NetworkConfig cfg;
    cfg.jitter = 0;
    cfg.bandwidth = 1000.0; // 1 kB/s
    cfg.baseLatency = 0.0;
    cfg.latencyPerUnit = 0.0;
    Network net(sim, cfg);
    Sink sa, sb;
    NodeId a = net.addNode(&sa, 0, 0);
    NodeId b = net.addNode(&sb, 0, 0);
    net.send(a, b, makeMessage("t", 1, 1000 - messageHeaderBytes));
    sim.run();
    EXPECT_NEAR(sim.now(), 1.0, 1e-6); // 1000 bytes at 1 kB/s
}

TEST_F(NetFixture, SelfSendsDeliverInFifoOrder)
{
    // Self-delivery uses the minimal latency floor; equal timestamps
    // must resolve by the scheduler's FIFO tie-break, so the arrival
    // order is exactly the send order.
    for (int i = 0; i < 8; i++)
        net->send(a, a, makeMessage("t", i, 1));
    sim.run();
    ASSERT_EQ(na.received.size(), 8u);
    for (int i = 0; i < 8; i++)
        EXPECT_EQ(messageBody<int>(na.received[i]), i);
}

TEST_F(NetFixture, CrashMidFlightDropsAtArrival)
{
    // The destination churns out while the message is on the wire:
    // the sender transmitted (bytes counted, message in flight), but
    // delivery is lost at arrival time.
    net->send(a, b, makeMessage("t", 1, 10));
    EXPECT_EQ(net->inFlight(), 1u);
    net->setDown(b);
    sim.run();
    EXPECT_TRUE(nb.received.empty());
    EXPECT_EQ(net->totalMessages(), 1u);
    EXPECT_EQ(net->totalBytes(), 10 + messageHeaderBytes);
    EXPECT_EQ(net->inFlight(), 0u);

    // Recovery after the arrival time does not resurrect it.
    net->setUp(b);
    sim.run();
    EXPECT_TRUE(nb.received.empty());
}

TEST_F(NetFixture, ZeroAndNonzeroLatencyLinksInterleave)
{
    // near sits on top of a (zero link latency, floored to 1e-6);
    // b is 1.0 away (0.105s).  A message sent to b *first* must still
    // arrive after a later message to near — arrival order follows
    // link latency, not send order — while same-latency messages keep
    // FIFO order among themselves.
    Sink nnear;
    NodeId near = net->addNode(&nnear, 0.0, 0.0);

    net->send(a, b, makeMessage("far", 0, 1));
    net->send(a, near, makeMessage("near", 1, 1));
    net->send(a, near, makeMessage("near", 2, 1));

    while (sim.step()) {
    }
    ASSERT_EQ(nnear.received.size(), 2u);
    ASSERT_EQ(nb.received.size(), 1u);
    EXPECT_EQ(messageBody<int>(nnear.received[0]), 1);
    EXPECT_EQ(messageBody<int>(nnear.received[1]), 2);
    // The far delivery is the one that ends the run at t=0.105.
    EXPECT_NEAR(sim.now(), 0.105, 1e-9);
}

TEST_F(NetFixture, MulticastDeliversSharedPayloadToEveryDest)
{
    Sink nc;
    NodeId c = net->addNode(&nc, 0.5, 0.0);
    std::string blob(4096, 'x');
    net->multicast(a, {b, c, a}, makeMessage("m", blob, blob.size()));

    // One link crossing per destination, exactly like three sends.
    EXPECT_EQ(net->totalMessages(), 3u);
    EXPECT_EQ(net->totalBytes(), 3 * (blob.size() + messageHeaderBytes));
    EXPECT_EQ(net->inFlight(), 3u);

    sim.run();
    EXPECT_EQ(net->inFlight(), 0u);
    ASSERT_EQ(nb.received.size(), 1u);
    ASSERT_EQ(nc.received.size(), 1u);
    ASSERT_EQ(na.received.size(), 1u); // self is a valid multicast dest
    EXPECT_EQ(messageBody<std::string>(nb.received[0]), blob);
    EXPECT_EQ(messageBody<std::string>(nc.received[0]), blob);
    EXPECT_EQ(nb.received[0].src, a);
}

TEST_F(NetFixture, MulticastSkipsDownDestOnly)
{
    Sink nc;
    NodeId c = net->addNode(&nc, 0.5, 0.0);
    net->setDown(b);
    net->multicast(a, {b, c}, makeMessage("m", 7, 10));
    // Bytes are counted for the downed destination too: the sender
    // still transmitted on that link.
    EXPECT_EQ(net->totalMessages(), 2u);
    sim.run();
    EXPECT_TRUE(nb.received.empty());
    ASSERT_EQ(nc.received.size(), 1u);
    EXPECT_EQ(net->inFlight(), 0u);
}

TEST_F(NetFixture, MulticastFromDownSenderIsLost)
{
    net->setDown(a);
    net->multicast(a, {b}, makeMessage("m", 7, 10));
    sim.run();
    EXPECT_TRUE(nb.received.empty());
    EXPECT_EQ(net->inFlight(), 0u);
}

TEST(Network, MulticastAllDropsReclaimsFlightSlot)
{
    // With drop 1 every destination is dropped at send time; no
    // flight may be left behind, so the very next send is delivered
    // from a clean pool.
    Simulator sim;
    Network net(sim, {});
    FaultInjector inj(sim, net, FaultPlan{.drop = 1.0});
    inj.arm();
    Sink sa, sb;
    NodeId a = net.addNode(&sa, 0, 0);
    NodeId b = net.addNode(&sb, 0.1, 0);
    net.multicast(a, {b, b, b}, makeMessage("m", 1, 10));
    EXPECT_EQ(net.inFlight(), 0u);
    sim.run();
    EXPECT_TRUE(sb.received.empty());

    inj.disarm();
    net.send(a, b, makeMessage("m", 2, 10));
    sim.run();
    ASSERT_EQ(sb.received.size(), 1u);
    EXPECT_EQ(messageBody<int>(sb.received[0]), 2);
}

/** (arrival time, receiver, body) of one delivery. */
using Arrival = std::tuple<double, NodeId, int>;

/** Appends every delivery to a log shared by all the network's nodes,
 *  so the log holds the network-wide arrival order. */
class LogSink : public SimNode
{
  public:
    LogSink(const Simulator &sim, std::vector<Arrival> &log)
        : sim_(sim), log_(log)
    {
    }

    void
    handleMessage(const Message &msg) override
    {
        log_.emplace_back(sim_.now(), id, messageBody<int>(msg));
    }

    NodeId id = invalidNode;

  private:
    const Simulator &sim_;
    std::vector<Arrival> &log_;
};

/** What one run of 200 lossy transmissions leaves behind. */
struct LossyRun
{
    std::vector<Arrival> arrivals;
    std::uint64_t bytes = 0, messages = 0;
    std::uint64_t dropped = 0, duplicated = 0, delayed = 0, hash = 0;
};

/** 200 transmissions among four nodes under drops, duplicates and
 *  extra delay, each a send() or a one-destination multicast(). */
LossyRun
runLossy(bool viaMulticast)
{
    Simulator sim;
    Network net(sim, {});
    FaultInjector inj(
        sim, net,
        FaultPlan{.drop = 0.2, .duplicate = 0.2, .delayJitter = 0.01});
    inj.arm();
    LossyRun out;
    std::vector<std::unique_ptr<LogSink>> sinks;
    for (int i = 0; i < 4; i++) {
        sinks.push_back(std::make_unique<LogSink>(sim, out.arrivals));
        sinks.back()->id = net.addNode(sinks.back().get(), 0.2 * i, 0.1 * i);
    }
    for (int i = 0; i < 200; i++) {
        sim.scheduleAt(0.01 * i, [&net, i, viaMulticast] {
            NodeId from = static_cast<NodeId>(i % 4);
            NodeId to = static_cast<NodeId>((3 * i + 1) % 4);
            Message msg = makeMessage("t", i, 10 + i);
            if (viaMulticast)
                net.multicast(from, {to}, std::move(msg));
            else
                net.send(from, to, std::move(msg));
        });
    }
    sim.run();
    out.bytes = net.totalBytes();
    out.messages = net.totalMessages();
    out.dropped = inj.dropped();
    out.duplicated = inj.duplicated();
    out.delayed = inj.delayed();
    out.hash = inj.traceHash();
    return out;
}

TEST(Network, SendMatchesOneDestinationMulticast)
{
    LossyRun sent = runLossy(false);
    LossyRun cast = runLossy(true);
    EXPECT_GT(sent.dropped, 0u);
    EXPECT_GT(sent.duplicated, 0u);
    EXPECT_EQ(sent.arrivals, cast.arrivals);
    EXPECT_EQ(sent.bytes, cast.bytes);
    EXPECT_EQ(sent.messages, cast.messages);
    EXPECT_EQ(sent.dropped, cast.dropped);
    EXPECT_EQ(sent.duplicated, cast.duplicated);
    EXPECT_EQ(sent.delayed, cast.delayed);
    EXPECT_EQ(sent.hash, cast.hash);
}

TEST(Network, MulticastWithNoCopyIsADroppedSpan)
{
    Tracer tracer;
    TraceScope scope(tracer);
    Simulator sim;
    NetworkConfig cfg;
    cfg.jitter = 0;
    cfg.bandwidth = 0;
    Network net(sim, cfg);
    FaultInjector inj(sim, net, FaultPlan{.drop = 1.0});
    inj.arm();
    Sink sa, sb;
    NodeId a = net.addNode(&sa, 0, 0);
    NodeId b = net.addNode(&sb, 0.1, 0);
    net.multicast(a, {b, b, b}, makeMessage("m", 1, 10));
    inj.disarm();
    net.multicast(a, {a, b}, makeMessage("m", 2, 10));
    sim.run();

    std::vector<SpanRecord> spans = tracer.buffer().snapshot();
    ASSERT_EQ(spans.size(), 2u);
    // Every copy dropped: one Dropped span over the whole fan-out.
    EXPECT_EQ(spans[0].kind, SpanKind::Multicast);
    EXPECT_EQ(spans[0].peer, 3u);
    EXPECT_EQ(spans[0].status, SpanStatus::Dropped);
    EXPECT_EQ(spans[0].end, spans[0].start);
    // A delivered fan-out ends at its latest scheduled delivery.
    EXPECT_EQ(spans[1].peer, 2u);
    EXPECT_EQ(spans[1].status, SpanStatus::Ok);
    EXPECT_DOUBLE_EQ(spans[1].end, net.latency(a, b));
    EXPECT_EQ(sb.received.size(), 1u);
}

TEST_F(NetFixture, HealMergesTwoPartitionsAndLeavesOthersSplit)
{
    Sink nc;
    NodeId c = net->addNode(&nc, 0.3, 0.0);
    net->setPartition(b, 1);
    net->setPartition(c, 2);

    net->send(a, b, makeMessage("t", 1, 10));
    net->send(a, c, makeMessage("t", 2, 10));
    sim.run();
    EXPECT_TRUE(nb.received.empty());
    EXPECT_TRUE(nc.received.empty());

    // heal(0, 1) merges b's group back; c's partition is untouched.
    net->heal(0, 1);
    net->send(a, b, makeMessage("t", 3, 10));
    net->send(a, c, makeMessage("t", 4, 10));
    sim.run();
    ASSERT_EQ(nb.received.size(), 1u);
    EXPECT_EQ(messageBody<int>(nb.received[0]), 3);
    EXPECT_TRUE(nc.received.empty());

    // healPartitions() removes every remaining split.
    net->healPartitions();
    net->send(a, c, makeMessage("t", 5, 10));
    sim.run();
    ASSERT_EQ(nc.received.size(), 1u);
    EXPECT_EQ(messageBody<int>(nc.received[0]), 5);
}

TEST_F(NetFixture, PartitionMidFlightLosesMessageWithoutLeak)
{
    // The partition forms while messages are on the wire: they are
    // dropped at arrival (partition checked at delivery time), and
    // the in-flight accounting must still drain to zero — no flight
    // slot or counter leak survives the split/heal cycle.
    net->send(a, b, makeMessage("t", 1, 10));
    net->send(a, b, makeMessage("t", 2, 10));
    EXPECT_EQ(net->inFlight(), 2u);
    net->setPartition(b, 1);
    sim.run();
    EXPECT_TRUE(nb.received.empty());
    EXPECT_EQ(net->inFlight(), 0u);

    // Healing after the arrival time does not resurrect them, but
    // new traffic flows and the pooled flight slots are reusable.
    net->heal(0, 1);
    net->send(a, b, makeMessage("t", 3, 10));
    EXPECT_EQ(net->inFlight(), 1u);
    sim.run();
    ASSERT_EQ(nb.received.size(), 1u);
    EXPECT_EQ(messageBody<int>(nb.received[0]), 3);
    EXPECT_EQ(net->inFlight(), 0u);
}

TEST_F(NetFixture, FaultInjectorDuplicateDeliversTwiceAndDrains)
{
    FaultPlan plan;
    plan.duplicate = 1.0;
    FaultInjector inj(sim, *net, plan);
    inj.arm();
    net->send(a, b, makeMessage("t", 1, 10));
    EXPECT_EQ(net->inFlight(), 2u); // original + duplicate, one payload
    sim.run();
    EXPECT_EQ(nb.received.size(), 2u);
    EXPECT_EQ(net->inFlight(), 0u);
    EXPECT_EQ(inj.duplicated(), 1u);

    // Disarm detaches: the next send is fault-free.
    inj.disarm();
    net->send(a, b, makeMessage("t", 2, 10));
    sim.run();
    EXPECT_EQ(nb.received.size(), 3u);
    EXPECT_EQ(inj.inspected(), 1u);
}

TEST_F(NetFixture, DestroyedInjectorCancelsPendingPartitionCycles)
{
    // The injector schedules its partition/heal cycles on the
    // simulator; destroying it must cancel them, or a dead
    // injector's closures fire with a dangling `this`.
    {
        FaultPlan plan;
        plan.partitions.push_back({1.0, 2.0, {b}});
        FaultInjector inj(sim, *net, plan);
        inj.arm();
    }
    sim.run(); // cycle events were cancelled: nothing fires
    net->send(a, b, makeMessage("t", 1, 10));
    sim.run();
    ASSERT_EQ(nb.received.size(), 1u); // b was never partitioned
}

TEST_F(NetFixture, FaultInjectorDropIsAccountedPerLink)
{
    FaultPlan plan;
    plan.links.push_back({a, b, 1.0}); // this link always drops
    FaultInjector inj(sim, *net, plan);
    inj.arm();
    net->send(a, b, makeMessage("t", 1, 10));
    net->send(b, a, makeMessage("t", 2, 10)); // reverse link is clean
    sim.run();
    EXPECT_TRUE(nb.received.empty());
    ASSERT_EQ(na.received.size(), 1u);
    EXPECT_EQ(inj.dropped(), 1u);
    EXPECT_EQ(inj.inspected(), 2u);
    EXPECT_EQ(net->inFlight(), 0u);
}

TEST(Network, ResetCountersKeepsNodeState)
{
    Simulator sim;
    Network net(sim, {});
    Sink s;
    NodeId a = net.addNode(&s, 0, 0);
    net.setDown(a);
    net.send(a, a, makeMessage("t", 1, 1));
    net.resetCounters();
    EXPECT_EQ(net.totalBytes(), 0u);
    EXPECT_FALSE(net.isUp(a));
}

} // namespace
} // namespace oceanstore
