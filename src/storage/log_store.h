/**
 * @file
 * The per-node stable store: an append-only log with crash-consistent
 * recovery (DESIGN.md section 14).
 *
 * The paper's core promise is *persistence*: a server that crashes
 * restarts with its data (Sections 1, 4.5).  Every durable state
 * owner in the tree — archival fragment stores, the primary tier's
 * committed update log, Plaxton location pointers — writes through
 * its node's LogStore, so a node crash is a *restart*, not amnesia.
 * The narrow put/get/scan/sync/stats surface follows the
 * multicomputer object store's stable-storage layer (PAPERS.md,
 * cs/0004010): the object layers above never see framing, only keyed
 * byte values.  Keys are flat strings namespaced by convention
 * ("frag/<guid>/<idx>", "ulog/<seq>", "ptr/<guid>/<node>").  The
 * store is synchronous and deterministic — modeled latency is
 * *accounted* (stats, fault injector) rather than scheduled, so
 * callers on the sim's event loop decide what to charge where.
 *
 * Every mutation is one CRC32-framed record appended to the node's
 * DiskImage:
 *
 *     [u32 crc] [u8 type] [u32 keyLen] [u32 valLen] [key] [value]
 *
 * with the checksum covering everything after itself.  The in-memory
 * index (key -> latest record) is *derived* state, rebuilt by replay:
 * constructing a LogStore over an existing image IS recovery.
 *
 * The index makes no heap allocation per record.  It is three
 * buffers: a dense vector of slots (record offset and lengths, the
 * key's place in the arena, the key's hash), one arena holding every
 * live key's bytes, and an open-addressing table (linear probing,
 * backward-shift erase) of slot numbers.  A lookup is one hash probe
 * that compares against the arena, never against the image, so rot
 * in a key's image bytes is still caught by the serve-time CRC.  An
 * erase moves the last slot into the hole and leaves the key's
 * arena bytes dead; the arena is compacted once dead bytes exceed
 * live ones, so an erase-heavy store stays bounded.  The table's
 * order is never visible: scan()/scanKeys() collect the matching
 * slots and sort them by key.  Destroying the store (a node crash)
 * frees the three buffers, and replay refills them in one pass.
 *
 * The replay discipline, per the stable-storage exemplar (PAPERS.md,
 * cs/0004010) and the EOS in-memory->KV evolution:
 *
 *  - a structurally incomplete tail frame (header cut short, or
 *    declared lengths running past the image) is a *torn write*: the
 *    tail is physically truncated and the loss counted — losing
 *    un-fsynced suffix bytes is the crash contract, not an error;
 *  - a structurally sane frame whose checksum fails is *corruption*:
 *    rejected loudly (logged + `recovery.crc_rejects`), then replay
 *    continues at the declared frame end.  If the corruption hit a
 *    length field the resynchronization point is wrong and the
 *    remainder degenerates into further rejects or a torn-tail
 *    truncation — deterministically, never silently;
 *  - recovery is idempotent: replaying the same image twice yields
 *    byte-identical indexes (the 16-seed sweep in tests/test_storage
 *    holds this across adversarial crash plans).
 *
 * Reads re-verify the record checksum on every get()/view()/scan()
 * hit, so post-recovery media rot (DiskFaultInjector::decay) is
 * detected at serve time: the value is withheld, `storage.crc_errors`
 * counts it, and the caller sees a miss it must repair through its
 * own redundancy (for fragments: the Merkle-audited archival repair).
 */

#ifndef OCEANSTORE_STORAGE_LOG_STORE_H
#define OCEANSTORE_STORAGE_LOG_STORE_H

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "storage/disk.h"
#include "storage/fault.h"
#include "util/bytes.h"

namespace oceanstore {

/** Outcome of a mutating storage operation. */
enum class StorageStatus
{
    Ok,
    NoSpace, //!< Disk full: the write was rejected, reads still serve.
};

/** Lifetime operation counters for one store instance. */
struct StorageStats
{
    std::uint64_t puts = 0;
    std::uint64_t gets = 0;
    std::uint64_t erases = 0;
    std::uint64_t syncs = 0;
    std::uint64_t bytesWritten = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t enospcErrors = 0; //!< Appends rejected by disk-full.
    std::uint64_t crcErrors = 0;    //!< Reads failing frame checksum.
    /** Modeled IO latency accrued (slow-IO fault plan), sim seconds. */
    double modeledLatency = 0.0;
};

/** What one recovery replay observed and did. */
struct RecoveryReport
{
    std::uint64_t recordsReplayed = 0; //!< Frames accepted and applied.
    std::uint64_t bytesReplayed = 0;   //!< Image bytes scanned.
    std::uint64_t tornBytesTruncated = 0; //!< Tail bytes cut away.
    std::uint64_t crcRejects = 0;      //!< Sane frames, bad checksum.
    std::uint64_t liveKeys = 0;        //!< Index size after replay.
    double modeledLatency = 0.0;       //!< Slow-IO cost of the replay.
};

/** Tunables for one LogStore instance. */
struct LogStoreConfig
{
    /** Fsync after every put/erase (crash loses nothing but the op in
     *  flight).  When false the owner batches via sync(). */
    bool syncEachPut = true;
};

/**
 * The append-only store.  Constructing over a non-empty image
 * replays it (recovery); the report is kept for the owner to assert
 * against and to feed the `recovery.*` metrics and the profiler's
 * "storage.recover" phase.
 */
class LogStore
{
  public:
    /**
     * @param disk    the persistent image (owned by NodeStorage; must
     *                outlive this store)
     * @param faults  optional fault injector for slow-IO accounting
     *                (crash faults are applied by NodeStorage, not
     *                here); may be nullptr
     */
    LogStore(DiskImage &disk, DiskFaultInjector *faults,
             LogStoreConfig cfg = {});

    /** Store @p value under @p key (overwrites). */
    StorageStatus put(const std::string &key, ByteSpan value);

    /** Fetch the current value of @p key (nullopt when absent or the
     *  stored frame fails its checksum — counted, never served). */
    std::optional<Bytes> get(const std::string &key);

    /**
     * get() without the copy: a span over the value where it lies in
     * the image, valid until the next append to this store.  The
     * record's checksum is verified exactly as for get().
     */
    std::optional<ByteSpan> view(const std::string &key);

    /** True when @p key is live: an index lookup that reads no
     *  record, so rot is found only when the value is read. */
    bool contains(const std::string &key) const
    {
        return find(key) != nullptr;
    }

    /** Visit every live key with the given prefix in lexicographic
     *  order, reading no values.  @p fn must not mutate the store. */
    void scanKeys(const std::string &prefix,
                  const std::function<void(const std::string &)> &fn) const;

    /** Remove @p key.  @return true when it existed. */
    bool erase(const std::string &key);

    /**
     * Visit every live key with the given prefix in lexicographic
     * order (deterministic: recovery and tests depend on the order).
     * Values failing their checksum are skipped and counted.  @p fn
     * must not mutate the store.
     */
    void scan(const std::string &prefix,
              const std::function<void(const std::string &,
                                       const Bytes &)> &fn);

    /** Make everything written so far crash-durable (fsync point). */
    void sync();

    /** Lifetime counters. */
    const StorageStats &stats() const { return stats_; }

    /** Number of live keys. */
    std::size_t keyCount() const { return slots_.size(); }

    /** The replay report from construction-time recovery. */
    const RecoveryReport &recovery() const { return recovery_; }

    /** Log bytes on disk (live + superseded + tombstones). */
    std::uint64_t logBytes() const { return disk_.size(); }

    /** RAM bytes of the index's key arena (live + erased keys). */
    std::size_t keyArenaBytes() const { return keyArena_.size(); }

  private:
    /** Index entry: where the latest record for a key lives, and
     *  where the key's bytes lie in the arena. */
    struct Slot
    {
        std::uint64_t recordOffset = 0;
        std::uint64_t keyOffset = 0; //!< Into keyArena_.
        std::uint32_t recordLen = 0; //!< Full frame length.
        std::uint32_t valueLen = 0;
        std::uint32_t keyLen = 0;
        std::uint32_t hash = 0; //!< keyHash(key); its low bits home it.
    };

    /** Frame a record in place at the image tail; handles ENOSPC
     *  (checked before any byte is written) and latency. */
    StorageStatus appendRecord(std::uint8_t type, std::string_view key,
                               ByteSpan value);

    /** Re-read and checksum-verify the record of @p slot.  @return
     *  its value bytes in the image, or nullopt on a checksum fail. */
    std::optional<ByteSpan> readVerified(std::string_view key,
                                         const Slot &slot);

    /** Construction-time replay. */
    void recover();

    std::string_view keyOf(const Slot &slot) const
    {
        return {keyArena_.data() + slot.keyOffset, slot.keyLen};
    }

    /** The table position holding @p key's slot number, or the empty
     *  position where it would go. */
    std::size_t probe(std::string_view key, std::uint32_t hash) const;

    /** The table position of @p key's slot, if the key is live. */
    std::optional<std::size_t> position(std::string_view key) const;

    /** @p key's slot, or nullptr when it is not live. */
    const Slot *find(std::string_view key) const;

    /** Point @p key at the record @p offset (adds the key if new). */
    void indexPut(std::string_view key, std::uint64_t offset,
                  std::uint32_t recordLen, std::uint32_t valueLen);

    /** Drop the key whose slot number sits at table position @p pos. */
    void removeAt(std::size_t pos);

    /** Double the table (or make the first one) and re-home every
     *  slot from its stored hash. */
    void growTable();

    /** Rewrite the arena with only the live keys' bytes. */
    void compactArena();

    /** Live slots with @p prefix, sorted by key. */
    std::vector<std::uint32_t> sortedSlots(std::string_view prefix) const;

    DiskImage &disk_;
    DiskFaultInjector *faults_;
    LogStoreConfig cfg_;
    std::vector<Slot> slots_;
    std::string keyArena_;
    std::uint64_t deadKeyBytes_ = 0; //!< Arena bytes of erased keys.
    std::vector<std::uint32_t> table_; //!< Slot numbers; kEmpty = free.
    StorageStats stats_;
    RecoveryReport recovery_;
};

} // namespace oceanstore

#endif // OCEANSTORE_STORAGE_LOG_STORE_H
