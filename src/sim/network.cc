#include "sim/network.h"

#include <cmath>
#include <optional>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "sim/fault.h"
#include "util/check.h"
#include "util/logging.h"

namespace oceanstore {

namespace {

/** Interned metric ids, registered once on first use. */
struct NetMetricIds
{
    MetricsRegistry *reg;
    MetricsRegistry::Id sends, bytes, drops, arrivalDrops, delivered,
        dup, inFlight;

    NetMetricIds()
        : reg(&MetricsRegistry::global()),
          sends(reg->counter("net.sends")),
          bytes(reg->counter("net.bytes")),
          drops(reg->counter("net.drops")),
          arrivalDrops(reg->counter("net.arrival_drops")),
          delivered(reg->counter("net.delivered")),
          dup(reg->counter("net.dup")),
          inFlight(reg->gauge("net.in_flight"))
    {
    }
};

NetMetricIds &
netMetrics()
{
    static NetMetricIds ids;
    return ids;
}

} // namespace

Network::Network(Simulator &sim, NetworkConfig cfg)
    : sim_(sim), cfg_(cfg), rng_(cfg.seed)
{
}

NodeId
Network::addNode(SimNode *node, double x, double y)
{
    NodeId id = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(node);
    pos_.emplace_back(x, y);
    up_.push_back(true);
    partition_.push_back(0);
    return id;
}

void
Network::removeNode(NodeId id)
{
    if (id < nodes_.size())
        nodes_[id] = nullptr;
}

double
Network::distance(NodeId a, NodeId b) const
{
    OS_DCHECK(a < pos_.size() && b < pos_.size(),
              "Network::distance: bad node id");
    double dx = pos_[a].first - pos_[b].first;
    double dy = pos_[a].second - pos_[b].second;
    return std::sqrt(dx * dx + dy * dy);
}

double
Network::latency(NodeId a, NodeId b) const
{
    if (a == b)
        return 0.0;
    return cfg_.baseLatency + cfg_.latencyPerUnit * distance(a, b);
}

std::uint32_t
Network::allocFlight(Message &&msg)
{
    MutexLock lock(mu_);
    std::uint32_t f;
    if (!freeFlights_.empty()) {
        f = freeFlights_.back();
        freeFlights_.pop_back();
        flights_[f].msg = std::move(msg);
    } else {
        f = static_cast<std::uint32_t>(flights_.size());
        flights_.push_back(Flight{std::move(msg), 0, {}});
    }
    if (codec_)
        codec_->encode(flights_[f].msg, flights_[f].frame);
    return f;
}

void
Network::releaseFlight(std::uint32_t flight)
{
    MutexLock lock(mu_);
    Flight &fl = flights_[flight];
    OS_DCHECK(fl.refs > 0, "Network: flight over-released");
    if (--fl.refs == 0) {
        fl.msg = Message(); // drop the payload eagerly
        freeFlights_.push_back(flight);
    }
}

double
Network::deliveryLatency(NodeId from, NodeId to, std::size_t bytes)
{
    double lat = latency(from, to);
    if (cfg_.jitter > 0)
        lat *= 1.0 + rng_.uniform(-cfg_.jitter, cfg_.jitter);
    if (cfg_.bandwidth > 0)
        lat += static_cast<double>(bytes) / cfg_.bandwidth;

    // Local delivery still takes a scheduling step to avoid unbounded
    // recursion in protocols that self-send.
    if (lat <= 0)
        lat = 1e-6;
    return lat;
}

const Network::Flight &
Network::flightOf(std::uint32_t flight) const
{
    MutexLock lock(mu_);
    return flights_[flight];
}

void
Network::scheduleDelivery(std::uint32_t flight, NodeId to, double lat)
{
    std::size_t nowInFlight;
    {
        MutexLock lock(mu_);
        flights_[flight].refs++;
        inFlight_++;
        nowInFlight = inFlight_;
    }
    NetMetricIds &nm = netMetrics();
    nm.reg->set(nm.inFlight, static_cast<double>(nowInFlight));
    // Captures 12 bytes: stays in EventFn's inline buffer, so the
    // whole send costs no heap allocation.  Delivery events carry no
    // cancellation token by design: they *are* the simulated network,
    // and the Network outlives the drained event queue.
    // oslint-allow(lifetime): deliveries are owned by the run; the Network outlives them
    sim_.schedule(lat, [this, flight, to]() { deliver(flight, to); });
}

void
Network::deliver(std::uint32_t flight, NodeId to)
{
    std::size_t nowInFlight;
    {
        MutexLock lock(mu_);
        inFlight_--;
        nowInFlight = inFlight_;
    }
    NetMetricIds &nm = netMetrics();
    nm.reg->set(nm.inFlight, static_cast<double>(nowInFlight));
    const Flight &fl = flightOf(flight);
    const Message &m = fl.msg;
    if (nodes_[to] != nullptr && up_[to] &&
        partition_[m.src] == partition_[to] &&
        (!codec_ || codec_->verify(fl.frame, m))) {
        nm.reg->inc(nm.delivered);
        // Make the message's span the ambient causal parent for
        // everything the handler does (nested sends, timers).
        Tracer *tr = Tracer::active();
        bool traced = tr && m.trace.valid();
        if (traced)
            tr->setCurrent(m.trace);
        // The handler may reentrantly send (allocating new flights);
        // flights_ is a deque so &m stays valid throughout.
        nodes_[to]->handleMessage(m);
        if (traced)
            tr->clearCurrent();
    } else {
        nm.reg->inc(nm.arrivalDrops);
    }
    releaseFlight(flight);
}

void
Network::send(NodeId from, NodeId to, Message msg)
{
    transmit(from, {&to, 1}, std::move(msg), SpanKind::Send);
}

void
Network::multicast(NodeId from, const std::vector<NodeId> &tos,
                   Message msg)
{
    transmit(from, tos, std::move(msg), SpanKind::Multicast);
}

void
Network::transmit(NodeId from, std::span<const NodeId> tos,
                  Message &&msg, SpanKind kind)
{
    if (from >= nodes_.size())
        fatal("Network: unknown sender");
    if (tos.empty())
        return;
    for (NodeId to : tos) {
        if (to >= nodes_.size())
            fatal("Network: unknown destination");
    }

    // Every destination is one link crossing, exactly as if sent
    // individually.
    msg.src = from;
    const std::size_t bytes = msg.totalBytes();
    const std::size_t copies = tos.size();
    totalBytes_ += bytes * copies;
    totalMessages_ += copies;
    byType_[msg.type] += bytes * copies;
    NetMetricIds &nm = netMetrics();
    nm.reg->inc(nm.sends, copies);
    nm.reg->inc(nm.bytes, bytes * copies);

    // One span per call, ending at the latest scheduled delivery.  It
    // is recorded with the first surviving copy, whose flight carries
    // it; a call that schedules no copy records it Dropped, so retry
    // trees show every attempt.
    Tracer *tr = Tracer::active();
    const auto peer = static_cast<std::uint32_t>(
        kind == SpanKind::Send ? tos[0] : copies);
    const auto spanBytes = static_cast<std::uint32_t>(bytes);
    const SimTime now = sim_.now();
    std::uint32_t span = 0;
    std::optional<std::uint32_t> flight;

    // A crashed sender cannot transmit.
    if (!up_[from]) {
        nm.reg->inc(nm.drops, copies);
    } else {
        // Label every delivery event with the message's component
        // prefix ("pbft.prepare" -> "pbft") so the profiler attributes
        // the event-loop phase breakdown per protocol layer.
        PhaseProfiler *pp = PhaseProfiler::active();
        ScopedPhase phase(pp, pp ? pp->labelForMessageType(msg.type) : 0);
        for (NodeId to : tos) {
            // Draw order per leg: jitter, injector verdict, then the
            // duplicate's jitter.
            double lat = deliveryLatency(from, to, bytes);
            bool dup = false;
            if (fault_) {
                FaultInjector::Verdict v = fault_->onSend(from, to, bytes);
                if (v.drop) {
                    nm.reg->inc(nm.drops);
                    continue;
                }
                lat += v.extraDelay;
                dup = v.duplicate;
            }
            double dupLat = 0.0;
            if (dup) {
                nm.reg->inc(nm.dup);
                dupLat = lat + deliveryLatency(from, to, bytes);
            }
            const double end = now + (dup ? dupLat : lat);
            if (!flight) {
                if (tr) {
                    msg.trace = tr->messageSpan(msg.type, from, peer,
                                                spanBytes, now, end, kind,
                                                SpanStatus::Ok);
                    span = msg.trace.spanId;
                }
                flight = allocFlight(std::move(msg));
            } else if (tr) {
                tr->setSpanEnd(span, end);
            }
            // Both copies share the one pooled payload.
            scheduleDelivery(*flight, to, lat);
            if (dup)
                scheduleDelivery(*flight, to, dupLat);
        }
    }
    if (!flight && tr)
        tr->messageSpan(msg.type, from, peer, spanBytes, now, now, kind,
                        SpanStatus::Dropped);
}

void
Network::setDown(NodeId n)
{
    OS_CHECK(n < up_.size(), "Network::setDown: bad node id ", n);
    up_[n] = false;
}

void
Network::setUp(NodeId n)
{
    OS_CHECK(n < up_.size(), "Network::setUp: bad node id ", n);
    up_[n] = true;
}

void
Network::setPartition(NodeId n, int partition)
{
    OS_CHECK(n < partition_.size(),
             "Network::setPartition: bad node id ", n);
    partition_[n] = partition;
}

void
Network::healPartitions()
{
    for (auto &p : partition_)
        p = 0;
}

void
Network::heal(int a, int b)
{
    if (a == b)
        return;
    for (auto &p : partition_) {
        if (p == b)
            p = a;
    }
}

void
Network::resetCounters()
{
    totalBytes_ = 0;
    totalMessages_ = 0;
    byType_.clear();
}

} // namespace oceanstore
