/**
 * @file
 * Latency-phase profiler (observability layer).
 *
 * Figures 5 and 6 of the paper decompose update latency into phases
 * (serialize -> route -> agree -> disseminate).  This profiler
 * reproduces that decomposition by attributing event-loop activity to
 * *component labels*: the network labels each delivery event with the
 * component prefix of the message type ("pbft", "sec", "loc", ...),
 * timers inherit the ambient label of the code that armed them, and
 * the runtime reports every fired event to the active profiler along
 * with its scheduling delay (fire time minus schedule time — the
 * latency the event spent in flight or pending).
 *
 * Delays are read from the *Runtime clock*: simulated seconds on the
 * sim backend (deterministic — two runs of the same seed produce
 * identical phase tables, asserted by the determinism sweep), wall
 * seconds on the threaded backend (where a phase table is a real
 * latency breakdown of a live cluster).  Like the Tracer, the
 * profiler is ambient (ProfileScope installs it) and costs one null
 * check per event when detached.
 *
 * Thread contract: buckets are fixed-capacity relaxed atomics, so
 * onEventFired() is lock-free from any thread of a paced Runtime; the
 * ambient label is thread-local; interning takes a mutex.
 */

#ifndef OCEANSTORE_OBS_PROFILER_H
#define OCEANSTORE_OBS_PROFILER_H

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/mutex.h"

namespace oceanstore {

/**
 * Per-label accounting of fired events.  Label 0 is reserved for
 * unattributed events ("(unlabeled)").
 */
class PhaseProfiler
{
  public:
    using Label = std::uint16_t;

    /** Fixed label capacity: ids index the atomic bucket array, which
     *  must never reallocate under concurrent onEventFired(). */
    static constexpr std::size_t kMaxLabels = 512;

    PhaseProfiler();
    PhaseProfiler(const PhaseProfiler &) = delete;
    PhaseProfiler &operator=(const PhaseProfiler &) = delete;

    /** The process-wide active profiler, or nullptr when detached. */
    static PhaseProfiler *
    active()
    {
        return active_.load(std::memory_order_acquire);
    }

    /** Intern a phase label (deterministic first-use order). */
    Label intern(const std::string &name) OS_EXCLUDES(mu_);

    /**
     * Label for a dotted message type: the prefix before the first
     * '.' ("pbft.prepare" -> "pbft").  Memoized per full type string
     * so the network hot path does one map lookup, no allocation.
     */
    Label labelForMessageType(const std::string &type)
        OS_EXCLUDES(mu_);

    /** Ambient label (of the calling thread) inherited by events
     *  scheduled right now. */
    Label currentLabel() const;
    void setCurrent(Label label);

    /** Called by the runtime for every fired event: @p delay is fire
     *  time minus schedule time, in Runtime-clock seconds (simulated
     *  on the sim backend, wall on the threaded backend). */
    void
    onEventFired(Label label, double delay)
    {
        Bucket &b = buckets_[label];
        b.events.fetch_add(1, std::memory_order_relaxed);
        b.delay.fetch_add(delay, std::memory_order_relaxed);
    }

    /** One phase row of the breakdown. */
    struct PhaseStats
    {
        std::string name;
        std::uint64_t events = 0; //!< Events attributed to the phase.
        double delay = 0.0;       //!< Summed schedule->fire latency
                                  //!< (Runtime-clock seconds).
    };

    /** Snapshot of every non-empty phase, sorted by name. */
    std::vector<PhaseStats> stats() const OS_EXCLUDES(mu_);

    /** Total events seen (all labels). */
    std::uint64_t totalEvents() const OS_EXCLUDES(mu_);

    /** Zero all buckets, keeping label registrations; resets the
     *  calling thread's ambient label. */
    void clear() OS_EXCLUDES(mu_);

  private:
    friend class ProfileScope;

    struct Bucket
    {
        std::atomic<std::uint64_t> events{0};
        std::atomic<double> delay{0.0};
    };

    static std::atomic<PhaseProfiler *> active_;

    /** Guards label registration. */
    mutable Mutex mu_;

    /** Fixed-capacity so ids stay valid without a lock. */
    std::array<Bucket, kMaxLabels> buckets_;

    std::vector<std::string> labelNames_ OS_GUARDED_BY(mu_);
    std::map<std::string, Label> labelTable_
        OS_GUARDED_BY(mu_); //!< name -> label
    std::map<std::string, Label> typeCache_
        OS_GUARDED_BY(mu_); //!< full type -> label
};

/** RAII installation of a profiler as the active instance. */
class ProfileScope
{
  public:
    explicit ProfileScope(PhaseProfiler &profiler)
        : prev_(PhaseProfiler::active_.exchange(
              &profiler, std::memory_order_acq_rel))
    {
    }

    ~ProfileScope()
    {
        PhaseProfiler::active_.store(prev_,
                                     std::memory_order_release);
    }

    ProfileScope(const ProfileScope &) = delete;
    ProfileScope &operator=(const ProfileScope &) = delete;

  private:
    PhaseProfiler *prev_;
};

/** RAII ambient-label override (restores the previous label). */
class ScopedPhase
{
  public:
    ScopedPhase(PhaseProfiler *profiler, PhaseProfiler::Label label)
        : profiler_(profiler)
    {
        if (profiler_) {
            prev_ = profiler_->currentLabel();
            profiler_->setCurrent(label);
        }
    }

    ~ScopedPhase()
    {
        if (profiler_)
            profiler_->setCurrent(prev_);
    }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    PhaseProfiler *profiler_;
    PhaseProfiler::Label prev_ = 0;
};

} // namespace oceanstore

#endif // OCEANSTORE_OBS_PROFILER_H
