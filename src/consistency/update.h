/**
 * @file
 * The OceanStore update model (Section 4.4.1-4.4.2, Figure 4).
 *
 * Changes to data objects are made by client-generated updates: lists
 * of predicates associated with actions.  A replica evaluates each
 * clause's predicate in order; the actions of the earliest true
 * predicate are applied atomically and the update commits, otherwise
 * it aborts.  The update is logged either way.
 *
 * Because replicas hold only ciphertext, predicates are restricted to
 * compare-version, compare-size, compare-block and search, and actions
 * to replace-block, insert-block, delete-block and append — all of
 * which operate directly on encrypted blocks given a position-
 * dependent block cipher.
 */

#ifndef OCEANSTORE_CONSISTENCY_UPDATE_H
#define OCEANSTORE_CONSISTENCY_UPDATE_H

#include <cstdint>
#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "crypto/guid.h"
#include "crypto/keys.h"
#include "crypto/searchable.h"
#include "crypto/sha1.h"
#include "util/bytes.h"

namespace oceanstore {

/** Monotonic object version number; every committed update makes one. */
using VersionNum = std::uint64_t;

/** Client-assigned optimistic timestamp (Section 4.4.3). */
struct Timestamp
{
    std::uint64_t time = 0;     //!< Client clock reading.
    std::uint64_t clientId = 0; //!< Tie-breaker.

    auto operator<=>(const Timestamp &) const = default;
};

/** Predicate: object version equals an expected value. */
struct CompareVersion
{
    VersionNum expected = 0;
};

/** Predicate: object size (in logical blocks) equals expected. */
struct CompareSize
{
    std::uint64_t expectedBlocks = 0;
};

/**
 * Predicate: hash of the ciphertext block at a logical position
 * equals an expected digest.  Clients with a position-dependent block
 * cipher can compute this hash without fetching the block.
 */
struct CompareBlock
{
    std::uint64_t position = 0;
    Sha1Digest expected{};
};

/**
 * Predicate: search over ciphertext (Song-Wagner-Perrig style).  The
 * replica evaluates the trapdoor against the object's encrypted word
 * index and compares the boolean outcome.
 */
struct SearchPredicate
{
    SearchTrapdoor trapdoor;
    bool expectPresent = true;
};

/** One predicate. */
using Predicate = std::variant<CompareVersion, CompareSize, CompareBlock,
                               SearchPredicate>;

/** Action: overwrite the ciphertext block at a logical position. */
struct ReplaceBlock
{
    std::uint64_t position = 0;
    Blob ciphertext;
};

/**
 * Action: insert a ciphertext block *before* logical position
 * @p position using the Figure 4 pointer-block scheme — the old block
 * and the new block are appended physically and the old physical slot
 * becomes an index block pointing at both.
 */
struct InsertBlock
{
    std::uint64_t position = 0;
    Blob ciphertext;
};

/** Action: delete the logical block at @p position (empty pointer). */
struct DeleteBlock
{
    std::uint64_t position = 0;
};

/** Action: append a ciphertext block at the end of the object. */
struct AppendBlock
{
    Blob ciphertext;
};

/** Action: replace the object's encrypted search index. */
struct SetSearchIndex
{
    SearchIndex index;
};

/** One action. */
using Action = std::variant<ReplaceBlock, InsertBlock, DeleteBlock,
                            AppendBlock, SetSearchIndex>;

/**
 * A guarded clause: all predicates must hold (conjunction) for the
 * clause's actions to fire.  An empty predicate list is always true.
 */
struct UpdateClause
{
    std::vector<Predicate> predicates;
    std::vector<Action> actions;
};

/**
 * A client-generated update against one object.
 *
 * Block ciphertext is a Blob, so even a copied update shares the bulk
 * bytes.  Log entries, message bodies and retransmit closures do not
 * copy it at all: they hold one SharedUpdate.
 *
 * Hot-path contract: an update is treated as value-immutable once it
 * starts circulating (signed and handed to the consistency layers).
 * id() and wireSize() memoize their result on first call — replicas
 * recompute both per log scan and per dissemination hop, and without
 * the cache every call re-serializes and re-hashes the full payload
 * (the dominant cost in the simulator benchmarks).  Code that mutates
 * content fields after either has been called must invalidate with
 * resetCachedIdentity().
 */
struct Update
{
    Guid objectGuid;              //!< Target object.
    std::vector<UpdateClause> clauses;
    Timestamp timestamp;          //!< Optimistic client timestamp.
    Bytes writerPublicKey;        //!< Key the signature verifies under.
    Signature signature;          //!< Over serializeForSigning().

    /** Unique id of this update (hash of its signed serialization).
     *  Memoized; see the struct comment. */
    Guid id() const;

    /** Serialized form covered by the signature. */
    Bytes serializeForSigning() const;

    /** Full wire form: signed serialization plus the signature. */
    Bytes serializeFull() const;

    /** Parse a serializeFull() buffer; nullopt on malformed input. */
    static std::optional<Update> deserializeFull(ByteSpan wire);

    /** Bytes this update occupies on the wire.  Memoized (the
     *  signature's size contribution is always read live). */
    std::size_t wireSize() const;

    /** Drop memoized id/size after mutating content fields. */
    void
    resetCachedIdentity()
    {
        idCached_ = false;
        cachedSignedSize_ = 0;
    }

    /** True once both id() and wireSize() are memoized, so neither
     *  call writes this update again. */
    bool
    identityCached() const
    {
        return idCached_ && cachedSignedSize_ != 0;
    }

  private:
    mutable Guid cachedId_;
    mutable bool idCached_ = false;
    /** serializeForSigning().size(); 0 = not yet computed (the real
     *  size is always positive: it contains the object guid). */
    mutable std::size_t cachedSignedSize_ = 0;
};

/**
 * A committed update held by reference.  The secondary tier, every
 * replica's log entry and every message body that carries the update
 * share one immutable Update (DESIGN.md section 19).
 */
using SharedUpdate = std::shared_ptr<const Update>;

/**
 * Move @p u behind a SharedUpdate.  Its id() and wireSize() memo is
 * warmed first, so no holder ever writes the shared object: on the
 * threaded backend a lazily filled memo would be a data race.
 */
SharedUpdate shareUpdate(Update u);

/** Serialize a predicate for signing / byte accounting. */
void serializePredicate(ByteWriter &w, const Predicate &p);

/** Serialize an action for signing / byte accounting. */
void serializeAction(ByteWriter &w, const Action &a);

} // namespace oceanstore

#endif // OCEANSTORE_CONSISTENCY_UPDATE_H
