#include "runtime/stats.h"

#include <cstdio>
#include <ostream>

namespace oceanstore {

namespace {

/** Interned gauge ids for the published health surface. */
struct StatGaugeIds
{
    MetricsRegistry *reg;
    MetricsRegistry::Id strandQueueDepth, timersPending, linkQueueDepth,
        workers, workerUtilization;

    StatGaugeIds()
        : reg(&MetricsRegistry::global()),
          strandQueueDepth(reg->gauge("runtime.strand_queue_depth")),
          timersPending(reg->gauge("runtime.timers_pending")),
          linkQueueDepth(reg->gauge("runtime.link_queue_depth")),
          workers(reg->gauge("runtime.workers")),
          workerUtilization(reg->gauge("runtime.worker_utilization"))
    {
    }
};

StatGaugeIds &
statGauges()
{
    static StatGaugeIds ids;
    return ids;
}

/** Shortest round-trippable double rendering (matches metrics.cc). */
std::string
jsonDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

} // namespace

void
publishRuntimeStats(const RuntimeStats &s)
{
    StatGaugeIds &g = statGauges();
    g.reg->set(g.strandQueueDepth,
               static_cast<double>(s.strandQueueDepth));
    g.reg->set(g.timersPending, static_cast<double>(s.timersPending));
    g.reg->set(g.linkQueueDepth,
               static_cast<double>(s.linkQueuedMessages));
    g.reg->set(g.workers, static_cast<double>(s.workers));
    g.reg->set(g.workerUtilization, s.workerUtilization);
}

void
writeRuntimeStatsJson(const RuntimeStats &s, std::ostream &out)
{
    out << "{\"uptime\": " << jsonDouble(s.uptime)
        << ", \"strand_queue_depth\": " << s.strandQueueDepth
        << ", \"timers_pending\": " << s.timersPending
        << ", \"link_queue_depth\": " << s.linkQueuedMessages
        << ", \"workers\": " << s.workers
        << ", \"tasks_executed\": " << s.tasksExecuted
        << ", \"worker_utilization\": "
        << jsonDouble(s.workerUtilization) << "}";
}

PeriodicStatsExporter::PeriodicStatsExporter(Runtime &rt,
                                             double period, Sink sink)
    : rt_(rt), period_(period), sink_(std::move(sink))
{
}

PeriodicStatsExporter::~PeriodicStatsExporter() { stop(); }

void
PeriodicStatsExporter::start()
{
    stop();
    auto running = std::make_shared<std::atomic<bool>>(true);
    running_ = running;
    rt_.execute([this, running] {
        timer_ = rt_.schedule(period_, [this, running] {
            // Guard before touching the exporter: a stopped
            // exporter may already be destroyed.
            if (!running->load(std::memory_order_acquire))
                return;
            tick(running);
        });
    });
}

void
PeriodicStatsExporter::stop()
{
    if (!running_)
        return;
    auto running = running_;
    running_.reset();
    // Disarm under execute() so we serialize with any in-flight tick:
    // after execute() returns, the flag is visible and the pending
    // timer (if any) is cancelled or will see the flag and bail.
    rt_.execute([this, running] {
        running->store(false, std::memory_order_release);
        if (timer_ != invalidEventId) {
            rt_.cancel(timer_);
            timer_ = invalidEventId;
        }
    });
}

void
PeriodicStatsExporter::tick(
    const std::shared_ptr<std::atomic<bool>> &running)
{
    RuntimeStats s = rt_.stats();
    publishRuntimeStats(s);
    if (sink_)
        sink_(s, MetricsRegistry::global().snapshot());
    timer_ = rt_.schedule(period_, [this, running] {
        if (!running->load(std::memory_order_acquire))
            return;
        tick(running);
    });
}

} // namespace oceanstore
