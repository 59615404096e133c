/**
 * @file
 * Per-node durable storage handle (DESIGN.md section 14).
 *
 * A NodeStorage is what `core::Universe` creates for every durable
 * state owner (archival server, pbft replica, mesh node).  It owns
 * the pieces with *different* lifetimes:
 *
 *  - the DiskImage and DiskFaultInjector live as long as the node
 *    identity does — they survive crashes;
 *  - the LogStore is process state: crash() destroys it (after
 *    letting the injector tear/corrupt the image) and restart()
 *    rebuilds it by replaying the image, so a restart *is* recovery.
 *
 * Losing a disk outright is modeled by replacing disk() with an empty
 * image between crash() and restart(): the node comes back empty and
 * its owners repair from the system's redundancy.
 */

#ifndef OCEANSTORE_STORAGE_NODE_STORAGE_H
#define OCEANSTORE_STORAGE_NODE_STORAGE_H

#include <memory>

#include "storage/disk.h"
#include "storage/fault.h"
#include "storage/log_store.h"

namespace oceanstore {

/** Unread: every node runs the log store; kept so perfbench/ compiles. */
enum class StorageKind : std::uint8_t { Log };

/** Universe-level storage configuration, one per node via seed mix. */
struct StorageSetup
{
    StorageKind kind{};

    /** Fsync after every put (see LogStoreConfig). */
    bool syncEachPut = true;

    /** Disk faults; `faults.seed` is mixed with the node id so every
     *  node tears/corrupts independently but deterministically. */
    DiskFaultPlan faults;
};

/**
 * One node's storage: image + injector (durable across crashes) and
 * the currently running log store (destroyed on crash).
 */
class NodeStorage
{
  public:
    explicit NodeStorage(StorageSetup setup);

    /** The running store.  Fatal to call while crashed. */
    LogStore &backend();

    /** True between construction/restart() and crash(). */
    bool running() const { return store_ != nullptr; }

    /**
     * Node death: the injector applies the plan's crash faults to the
     * image (torn tail, bit flips), then the store — index included —
     * is destroyed.
     */
    DiskFaultInjector::CrashReport crash();

    /**
     * Node rebirth: rebuild the store over the (possibly torn or
     * corrupted) image — construction IS recovery — and keep the
     * replay report for lastRecovery().
     */
    void restart();

    /** Replay report of the most recent construction or restart. */
    const RecoveryReport &lastRecovery() const { return lastRecovery_; }

    DiskFaultInjector &faults() { return faults_; }
    DiskImage &disk() { return disk_; }

  private:
    void build();

    StorageSetup setup_;
    DiskImage disk_;
    DiskFaultInjector faults_;
    std::unique_ptr<LogStore> store_;
    RecoveryReport lastRecovery_;
};

/**
 * The running store behind @p storage, or null when the node is
 * crashed or @p storage is null (a standalone component with no
 * durable state).
 */
inline LogStore *
runningStore(NodeStorage *storage)
{
    return storage && storage->running() ? &storage->backend() : nullptr;
}

} // namespace oceanstore

#endif // OCEANSTORE_STORAGE_NODE_STORAGE_H
