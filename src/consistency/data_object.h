/**
 * @file
 * Replica-side object state (Sections 4.4.1-4.4.2, Figure 4).
 *
 * A DataObject is what a floating replica actually holds: an array of
 * *physical* blocks, each either an opaque ciphertext data block or an
 * index (pointer) block, plus the object's encrypted search index and
 * the signed update log.  The *logical* block sequence is obtained by
 * traversing index blocks, which is how insert-block and delete-block
 * work directly on ciphertext: the server rearranges pointers without
 * learning anything about block contents (Figure 4).
 *
 * Every committed update produces a new version; the log retains every
 * update (commit or abort), providing the versioning substrate of
 * Section 2 ("in principle, every update creates a new version").
 */

#ifndef OCEANSTORE_CONSISTENCY_DATA_OBJECT_H
#define OCEANSTORE_CONSISTENCY_DATA_OBJECT_H

#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "consistency/update.h"

namespace oceanstore {

/**
 * A physical data slot.  The ciphertext is the Blob the update carried,
 * so the log entry, every copy of the object and every version built
 * by materializeVersion() share one buffer per block.
 */
struct DataBlock
{
    Blob ciphertext;
};

/** Pointer block; an empty child list is a deletion tombstone. */
struct IndexBlock
{
    std::vector<std::uint32_t> children; //!< Physical indices, in order.
};

/** One physical slot. */
using StoredBlock = std::variant<DataBlock, IndexBlock>;

/** Result of applying one update. */
struct ApplyResult
{
    bool committed = false;
    VersionNum version = 0;      //!< Version after application.
    std::size_t clauseFired = 0; //!< Which clause committed (if any).
};

/**
 * One entry of the update log (kept for commits *and* aborts).  The
 * update is shared, not copied: every replica that applies it and
 * every version materializeVersion() builds hold the same one.
 */
struct LogEntry
{
    SharedUpdate update;
    bool committed = false;
    VersionNum versionAfter = 0;
};

class DataObject;

/**
 * One committed version of an object, immutable and shared by every
 * replica that holds it (DESIGN.md section 20).
 */
using SharedState = std::shared_ptr<const DataObject>;

/**
 * The ciphertext object replica.
 *
 * All mutation is through apply(); the server never needs (or gets)
 * key material.
 */
class DataObject
{
  public:
    /** Create an empty object (version 0). */
    explicit DataObject(const Guid &guid) : guid_(guid) {}

    /** The object's GUID. */
    const Guid &guid() const { return guid_; }

    /** Current committed version. */
    VersionNum version() const { return version_; }

    /** Number of logical (visible) blocks. */
    std::size_t numLogicalBlocks() const;

    /** Ciphertext of the logical block at @p pos. */
    const Blob &logicalBlock(std::size_t pos) const;

    /** All logical blocks in order (ciphertext). */
    std::vector<Bytes> logicalContent() const;

    /** SHA-1 of the logical block at @p pos (what CompareBlock sees). */
    Sha1Digest blockHash(std::size_t pos) const;

    /** The encrypted word index used by search predicates. */
    const SearchIndex &searchIndex() const { return searchIndex_; }

    /** Number of physical slots (data + index blocks). */
    std::size_t numPhysicalBlocks() const { return blocks_.size(); }

    /**
     * Evaluate and apply an update (Section 4.4.1 semantics): the
     * actions of the earliest clause whose predicates all hold are
     * applied atomically; otherwise the update aborts.  Either way it
     * is appended to the log, which keeps @p u itself.  @p u must
     * come from shareUpdate(): its memo is warm.
     */
    ApplyResult apply(SharedUpdate u);

    /** Adapter for tests and clients: shares a copy of @p u. */
    ApplyResult apply(const Update &u) { return apply(shareUpdate(u)); }

    /**
     * The state after applying @p u to @p state, which stays as it
     * is.  The first caller copies @p state, applies @p u to the copy
     * and memoizes the result on @p state; a later caller with the
     * identical parent and the same update id gets that same object
     * while any holder keeps it alive.  The result's logical cache is
     * warm, so holders that only read it never write it.
     */
    static SharedState successor(const SharedState &state, SharedUpdate u);

    /** A shared version-0 state of @p guid, its logical cache warm. */
    static SharedState empty(const Guid &guid);

    /** True while the logical traversal cache is up to date. */
    bool logicalCached() const { return !logicalDirty_; }

    /** Evaluate a single predicate against current state. */
    bool evaluate(const Predicate &p) const;

    /** The full update log. */
    const std::vector<LogEntry> &log() const { return log_; }

    /**
     * Reconstruct the object as of @p v by replaying the committed
     * prefix of the log ("permanent pointers to information").
     */
    DataObject materializeVersion(VersionNum v) const;

    /**
     * Serialize the full physical state (blocks, root sequence,
     * search index, version) — the archival form handed to the
     * erasure coder.
     */
    Bytes serializeState() const;

  private:
    /** Apply one action; caller has validated it. */
    void applyAction(const Action &a);

    /**
     * Can @p a be applied to an object of @p blocks logical blocks?
     * Advances @p blocks to the count after it: replace keeps it,
     * insert and append add one, delete removes one.
     */
    static bool validateAction(const Action &a, std::size_t &blocks);

    /** Physical index of logical block @p pos. */
    std::uint32_t physicalOf(std::size_t pos) const;

    /** Recompute the logical traversal cache if stale. */
    void refreshLogical() const;

    Guid guid_;
    VersionNum version_ = 0;
    std::vector<StoredBlock> blocks_;       //!< Physical slots.
    std::vector<std::uint32_t> rootSequence_; //!< Top-level order.
    SearchIndex searchIndex_;
    std::vector<LogEntry> log_;

    mutable bool logicalDirty_ = true;
    mutable std::vector<std::uint32_t> logicalCache_;

    /**
     * The successor built from this state, by update id.  Weak, so a
     * version is freed once no replica holds it; not part of the
     * value, so a copy of this object starts without one.
     */
    struct SuccessorMemo
    {
        Guid updateId;
        std::weak_ptr<const DataObject> next;

        SuccessorMemo() = default;
        SuccessorMemo(const SuccessorMemo &) {}
        SuccessorMemo &
        operator=(const SuccessorMemo &)
        {
            updateId = Guid();
            next.reset();
            return *this;
        }
    };
    mutable SuccessorMemo successor_;
};

} // namespace oceanstore

#endif // OCEANSTORE_CONSISTENCY_DATA_OBJECT_H
