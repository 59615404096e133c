#include "runtime/threaded_pacer.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "runtime/framing.h"
#include "runtime/runtime.h"
#include "util/check.h"

namespace oceanstore {

namespace {

/** Interned metric ids for a paced runtime.  Transport and timer
 *  totals are the Network's `net.*` and the Simulator's `sim.*`
 *  counters, which the pacer drives like the sim does. */
struct RtMetricIds
{
    MetricsRegistry *reg;
    MetricsRegistry::Id tasks, timersFired, frameBytes, frameErrors;

    RtMetricIds()
        : reg(&MetricsRegistry::global()),
          // perfbench/ reads runtime.tasks and runtime.timers_fired
          // by name: do not rename them.
          tasks(reg->counter("runtime.tasks")),
          timersFired(reg->counter("runtime.timers_fired")),
          frameBytes(reg->counter("runtime.frame_bytes")),
          frameErrors(reg->counter("runtime.frame_errors"))
    {
    }
};

RtMetricIds &
rtMetrics()
{
    static RtMetricIds ids;
    return ids;
}

/** @p seconds as a steady_clock duration (capped far beyond any run,
 *  so an event at +infinity cannot overflow the tick count). */
std::chrono::steady_clock::duration
wallSpan(double seconds)
{
    return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(std::min(seconds, 1e9)));
}

void
encodeWire(const Message &msg, Bytes &out)
{
    out = encodeFrame(msg);
}

bool
verifyWire(const Bytes &frame, const Message &msg)
{
    RtMetricIds &rm = rtMetrics();
    rm.reg->inc(rm.frameBytes, frame.size());
    // Decode + verify the frame exactly as a socket receiver would
    // before trusting any field of the out-of-band payload.
    auto head = decodeFrame(frame);
    if (head && head->type == msg.type && head->src == msg.src &&
        head->nonce == msg.nonce)
        return true;
    rm.reg->inc(rm.frameErrors);
    return false;
}

/** runtime/framing.h on every transmission. */
constexpr FrameCodec wireFraming{&encodeWire, &verifyWire};

} // namespace

Pacer::Pacer(Simulator &sim, Network &net) : sim_(sim), net_(net)
{
    // The wall reads whatever the simulator clock reads right now.
    start_ = std::chrono::steady_clock::now() - wallSpan(sim_.now());
    rtMetrics(); // intern ids before the loop thread exists
    net_.setFrameCodec(&wireFraming);
    loop_ = std::thread([this] { loop(); });
}

Pacer::~Pacer() { shutdown(); }

void
Pacer::shutdown()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stop_)
            return;
        stop_ = true;
        net_.setFrameCodec(nullptr);
    }
    loopCv_.notify_all();
    if (loop_.joinable())
        loop_.join();
}

bool
Pacer::enter() const
{
    if (owner_.load(std::memory_order_acquire) == std::this_thread::get_id())
        return false;
    // Announce the wait first: between two events the loop steps aside
    // while anyone is queued here.
    waiting_.fetch_add(1, std::memory_order_acq_rel);
    mu_.lock();
    waiting_.fetch_sub(1, std::memory_order_acq_rel);
    owner_.store(std::this_thread::get_id(), std::memory_order_release);
    sim_.advanceTo(wallNow());
    return true;
}

void
Pacer::leave() const
{
    // Wake the loop only if it waits on us or now has an earlier
    // deadline than the one it sleeps until.
    bool wake = handoff_ || sim_.nextEventTime() < sleepUntil_;
    owner_.store(std::thread::id{}, std::memory_order_release);
    mu_.unlock();
    if (wake)
        loopCv_.notify_one();
}

double
Pacer::wallNow() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start_)
        .count();
}

std::chrono::steady_clock::time_point
Pacer::wallAt(double t) const
{
    return start_ + wallSpan(t);
}

void
Pacer::loop()
{
    RtMetricIds &rm = rtMetrics();
    const std::thread::id self = std::this_thread::get_id();
    std::unique_lock<std::mutex> lk(mu_);
    while (!stop_) {
        if (waiting_.load(std::memory_order_acquire) > 0) {
            // One event per hold: clients queued to enter go first,
            // so a read never waits behind a burst of due events.
            handoff_ = true;
            loopCv_.wait(lk, [this] {
                return stop_ ||
                       waiting_.load(std::memory_order_acquire) == 0;
            });
            handoff_ = false;
            continue;
        }
        double next = sim_.nextEventTime();
        if (next > wallNow()) {
            sleepUntil_ = next;
            if (std::isinf(next))
                loopCv_.wait(lk);
            else
                loopCv_.wait_until(lk, wallAt(next));
            continue;
        }
        owner_.store(self, std::memory_order_release);
        auto t0 = std::chrono::steady_clock::now();
        sim_.step();
        busyNanos_.fetch_add(
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count()),
            std::memory_order_relaxed);
        owner_.store(std::thread::id{}, std::memory_order_release);
        rm.reg->inc(rm.tasks);
        rm.reg->inc(rm.timersFired);
        {
            std::lock_guard<std::mutex> g(firedMu_);
            fired_++;
        }
        firedCv_.notify_all();
    }
}

void
Pacer::fillStats(RuntimeStats &s) const
{
    s.uptime = wallNow();
    s.strandQueueDepth = sim_.dueBy(s.uptime);
    {
        std::lock_guard<std::mutex> g(firedMu_);
        s.tasksExecuted = fired_;
    }
    s.workers = 1;
    double busy =
        static_cast<double>(busyNanos_.load(std::memory_order_relaxed)) *
        1e-9;
    if (s.uptime > 0.0)
        s.workerUtilization = std::min(1.0, busy / s.uptime);
}

bool
Pacer::runUntil(const std::function<bool()> &pred, SimTime deadline)
{
    // Waiting while holding the loop mutex could never succeed: the
    // event that would satisfy pred cannot fire.  Fail fast instead:
    // sync wrappers (readSync/writeSync/restoreSync) must only be
    // called from client threads, never from runtime callbacks.
    OS_CHECK(owner_.load(std::memory_order_acquire) !=
                 std::this_thread::get_id(),
             "Runtime::runUntil called from a runtime callback or "
             "execute() of a paced runtime; sync wrappers must run on "
             "client threads");
    for (;;) {
        std::uint64_t seen;
        {
            Hold h(this);
            if (pred())
                return true;
            if (wallNow() > deadline)
                return false;
            std::lock_guard<std::mutex> g(firedMu_);
            seen = fired_;
        }
        std::unique_lock<std::mutex> lk(firedMu_);
        firedCv_.wait_until(lk, wallAt(deadline),
                            [&] { return fired_ != seen; });
    }
}

void
Pacer::advance(SimTime seconds) const
{
    if (seconds > 0)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(seconds));
}

} // namespace oceanstore
