/**
 * @file
 * Wall-clock Runtime backend (DESIGN.md section 15).
 *
 * ThreadedRuntime wraps the same Simulator + Network pair SimRuntime
 * wraps, but paces it by the wall clock instead of letting the caller
 * step it:
 *
 *  - one loop thread fires due events from the simulator's pooled
 *    event store, one event per hold of the loop mutex, and otherwise
 *    sleeps until the next event's deadline or a client's signal;
 *  - client threads enter through execute() or any other Runtime
 *    call, which takes the same mutex and moves the simulator clock
 *    to min(wall, next event) without firing anything — so protocol
 *    objects written for the single-threaded simulator need no locks
 *    of their own, and a loop that fires one event at a time lets a
 *    waiting client in between any two events;
 *  - transport, latency, drops and partitions are the Network's, so
 *    FaultInjector, ChurnInjector and Universe::net() work unchanged;
 *  - every transmission is framed once (runtime/framing.h) and every
 *    delivery decodes and CRC-verifies that frame before the handler
 *    sees the message.
 *
 * Clock: wall seconds since the runtime started while the loop keeps
 * up; while it runs late the clock is the fired event's deadline, so
 * it trails the wall by the backlog and never runs ahead of it.
 *
 * Determinism caveat: event order follows the simulator's (deadline,
 * schedule order) rule, but when clients enter depends on the OS, so
 * the threaded backend makes no replay guarantee.
 */

#ifndef OCEANSTORE_RUNTIME_THREADED_RUNTIME_H
#define OCEANSTORE_RUNTIME_THREADED_RUNTIME_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "runtime/sim_runtime.h"

namespace oceanstore {

/** The loopback link model of threaded mode: a 0.3 ms floor plus
 *  2 ms per unit of distance, no bandwidth term, no jitter and no
 *  drops (faults come from a FaultInjector). */
inline constexpr NetworkConfig loopbackNetwork{
    .baseLatency = 0.0003,
    .latencyPerUnit = 0.002,
    .bandwidth = 0.0,
    .jitter = 0.0,
    .dropRate = 0.0,
};

/** Runtime implementation over Simulator + Network, paced by the
 *  wall clock from one loop thread. */
class ThreadedRuntime final : public SimBackedRuntime<ThreadedRuntime>,
                              private FrameCodec
{
  public:
    /** Always true; kept so perfbench/ compiles. */
    static constexpr bool available() { return true; }

    /**
     * Wrap an existing simulator/network (neither is owned) and start
     * the loop thread.  From here on touch either only through this
     * runtime: a Runtime call or an execute() section.
     */
    ThreadedRuntime(Simulator &sim, Network &net,
                    std::uint64_t seed = 0x05eedull);

    /** Stops the loop (calls shutdown() if still running). */
    ~ThreadedRuntime() override;

    ThreadedRuntime(const ThreadedRuntime &) = delete;
    ThreadedRuntime &operator=(const ThreadedRuntime &) = delete;

    /**
     * Stop firing events and join the loop thread; events still
     * pending never run.  Idempotent; must be called (or the
     * destructor run) before any registered endpoint is destroyed.
     */
    void shutdown();

    // --- Runtime interface beyond the shared forwarding -----------
    std::uint64_t uniqueStamp() const override;
    RuntimeStats stats() const override;
    bool deterministic() const override { return false; }
    bool runUntil(const std::function<bool()> &pred,
                  SimTime deadline) override;
    void advance(SimTime seconds) override;
    void execute(const std::function<void()> &fn) override;

  private:
    friend class SimBackedRuntime<ThreadedRuntime>;

    /**
     * A client thread's hold of the loop mutex, taken around every
     * Runtime call.  On the thread that already holds it (the loop
     * inside a callback, or a nested execute()) it does nothing, so
     * every call is reentrant.
     */
    class Hold
    {
      public:
        explicit Hold(const ThreadedRuntime &rt)
            : rt_(rt), nested_(rt.owner_.load(std::memory_order_acquire) ==
                               std::this_thread::get_id())
        {
            if (nested_)
                return;
            // Announce the wait first: between two events the loop
            // steps aside while anyone is queued here.
            rt_.waiting_.fetch_add(1, std::memory_order_acq_rel);
            rt_.mu_.lock();
            rt_.waiting_.fetch_sub(1, std::memory_order_acq_rel);
            rt_.owner_.store(std::this_thread::get_id(),
                             std::memory_order_release);
            // Catch an idle clock up with the wall (never past a
            // pending event), so what the client schedules is timed
            // from now.
            rt_.sim_.advanceTo(rt_.wallNow());
        }

        ~Hold()
        {
            if (nested_)
                return;
            // Wake the loop only if it waits on us or now has an
            // earlier deadline than the one it sleeps until.
            bool wake = rt_.handoff_ ||
                        rt_.sim_.nextEventTime() < rt_.sleepUntil_;
            rt_.owner_.store(std::thread::id{},
                             std::memory_order_release);
            rt_.mu_.unlock();
            if (wake)
                rt_.loopCv_.notify_one();
        }

        Hold(const Hold &) = delete;
        Hold &operator=(const Hold &) = delete;

      private:
        const ThreadedRuntime &rt_;
        bool nested_;
    };

    double wallNow() const;
    std::chrono::steady_clock::time_point wallAt(double t) const;
    void loop();

    // FrameCodec: runtime/framing.h on every transmission.
    void encode(const Message &msg, Bytes &out) override;
    bool verify(const Bytes &frame, const Message &msg) override;

    /** Wall instant at which the simulator clock reads 0. */
    std::chrono::steady_clock::time_point start_;

    /** The loop mutex: held while an event fires and while a client
     *  is inside a Hold; guards sim_, net_ and the fields below. */
    mutable std::mutex mu_;
    /** Wakes the loop: a client scheduled something earlier than its
     *  sleep target, left after a handoff, or shutdown began. */
    mutable std::condition_variable loopCv_;
    /** Threads blocked entering mu_; the loop yields to them. */
    mutable std::atomic<int> waiting_{0};
    /** Thread holding mu_ (reentrancy check), default when none. */
    mutable std::atomic<std::thread::id> owner_{};
    /** Deadline the loop sleeps until. */
    double sleepUntil_ = 0.0;
    /** True while the loop waits for waiting clients to pass. */
    bool handoff_ = false;
    bool stop_ = false;
    mutable std::uint64_t stamp_ = 0;

    /** Events fired by the loop; firedCv_ signals runUntil waiters
     *  after every one. */
    mutable std::mutex firedMu_;
    std::condition_variable firedCv_;
    std::uint64_t fired_ = 0;

    /** Wall nanoseconds the loop spent firing events. */
    std::atomic<std::uint64_t> busyNanos_{0};

    std::thread loop_;
};

} // namespace oceanstore

#endif // OCEANSTORE_RUNTIME_THREADED_RUNTIME_H
