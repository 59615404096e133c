/**
 * @file
 * Seeded disk-fault injection (DESIGN.md section 14).
 *
 * The storage-tier mirror of the network FaultInjector (sim/fault.h):
 * a declarative DiskFaultPlan drives every fault decision from one
 * seeded rng, so a crash-restart scenario replays bit-for-bit per
 * seed.  Faults modeled:
 *
 *  - torn write on crash: the unsynced tail of the disk image is cut
 *    at a seeded offset — usually mid-record — before recovery runs;
 *  - bit flips: seeded per-byte corruption of the surviving unsynced
 *    tail on crash, plus an explicit decay() hook for media rot
 *    anywhere in the image;
 *  - ENOSPC: a byte capacity on the image; appends beyond it fail
 *    with StorageStatus::NoSpace while reads keep serving;
 *  - slow IO: per-operation and per-byte modeled latency, *accounted*
 *    to the log store's stats (and the phase profiler) rather than
 *    scheduled, keeping the store synchronous and deterministic.
 */

#ifndef OCEANSTORE_STORAGE_FAULT_H
#define OCEANSTORE_STORAGE_FAULT_H

#include <cstdint>

#include "storage/disk.h"
#include "util/random.h"

namespace oceanstore {

/** Declarative description of the disk faults to inject. */
struct DiskFaultPlan
{
    /**
     * Probability that a crash tears the unsynced tail (cut at a
     * seeded uniform offset in [synced, size]).  With probability
     * 1 - tornWriteOnCrash the whole tail survives the crash.
     */
    double tornWriteOnCrash = 0.0;

    /** Per-byte bit-flip probability applied to the unsynced bytes
     *  that survive a crash (each flips one seeded bit). */
    double bitFlipOnCrash = 0.0;

    /** Per-byte bit-flip probability for an explicit decay() pass
     *  over the whole image (media rot, independent of crashes). */
    double decayBitFlip = 0.0;

    /** Image capacity in bytes; 0 = unbounded (see DiskImage). */
    std::uint64_t capacityBytes = 0;

    /** Modeled latency per IO operation, sim seconds. */
    double opLatency = 0.0;

    /** Modeled latency per byte moved, sim seconds. */
    double perByteLatency = 0.0;

    /** Seed for every tear/flip decision. */
    std::uint64_t seed = 0xd15cf417u;
};

/**
 * Applies a DiskFaultPlan to one node's DiskImage.  Construct with
 * the plan (seed mixed per node by the owner), then let NodeStorage
 * call crash() at node death and the log store charge IO latency
 * through ioLatency().
 */
class DiskFaultInjector
{
  public:
    explicit DiskFaultInjector(DiskFaultPlan plan);

    /** What one crash did to the image. */
    struct CrashReport
    {
        std::uint64_t tornBytes = 0;  //!< Unsynced bytes cut away.
        std::uint64_t bitFlips = 0;   //!< Bytes corrupted in the tail.
    };

    /**
     * Apply the plan's crash faults to @p disk: cut the unsynced tail
     * at a seeded offset, flip seeded bits in the surviving unsynced
     * bytes.  The synced prefix is never touched — that is the fsync
     * contract recovery gets to rely on.
     */
    CrashReport crash(DiskImage &disk);

    /** Media-rot pass: flip bits anywhere with plan.decayBitFlip
     *  per-byte probability.  @return bytes corrupted. */
    std::uint64_t decay(DiskImage &disk);

    /** Modeled latency of one IO op moving @p bytes. */
    double
    ioLatency(std::uint64_t bytes) const
    {
        return plan_.opLatency +
               plan_.perByteLatency * static_cast<double>(bytes);
    }

    /** Lifetime totals across crashes/decay passes. */
    std::uint64_t totalTornBytes() const { return tornBytes_; }
    std::uint64_t totalBitFlips() const { return bitFlips_; }
    std::uint64_t crashes() const { return crashes_; }

    const DiskFaultPlan &plan() const { return plan_; }

  private:
    DiskFaultPlan plan_;
    Rng rng_;
    std::uint64_t tornBytes_ = 0;
    std::uint64_t bitFlips_ = 0;
    std::uint64_t crashes_ = 0;
};

} // namespace oceanstore

#endif // OCEANSTORE_STORAGE_FAULT_H
