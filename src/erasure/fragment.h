/**
 * @file
 * Self-verifying archival fragments (Section 4.5).
 *
 * Each coded fragment ships with the hashes neighboring its path to
 * the root of the hierarchical hash tree over all fragments; the
 * top-most hash is the GUID of the immutable archival object, so any
 * machine can verify any fragment in isolation.
 */

#ifndef OCEANSTORE_ERASURE_FRAGMENT_H
#define OCEANSTORE_ERASURE_FRAGMENT_H

#include <optional>
#include <vector>

#include "crypto/guid.h"
#include "crypto/merkle.h"
#include "erasure/codec.h"

namespace oceanstore {

/** One self-verifying archival fragment. */
struct Fragment
{
    Guid archiveGuid;     //!< Top-most hash: the archival object GUID.
    std::uint32_t index = 0;  //!< Position in the coded fragment set.
    Blob data;            //!< Coded fragment payload, shared by copies.
    MerklePath proof;     //!< Hashes neighboring the path to the root.

    /** Verify this fragment against its embedded archive GUID. */
    bool verify() const;

    /** Wire size: payload + proof + header fields. */
    std::size_t wireSize() const;

    /** Durable encoding: guid, index, payload and Merkle proof — the
     *  on-disk record format used by the storage tier. */
    Bytes serialize() const;

    /** Decode a serialize() buffer, copying the payload once into
     *  the fragment's own Blob (so @p raw may be a span into a log
     *  image).  @return nullopt on malformed input (a structurally
     *  damaged stored record). */
    static std::optional<Fragment> deserialize(ByteSpan raw);
};

/** A complete fragment set plus the metadata needed to reassemble. */
struct FragmentSet
{
    Guid archiveGuid;           //!< GUID of the archival version.
    std::size_t originalSize = 0; //!< Length of the original data.
    std::vector<Fragment> fragments;
};

/**
 * Encode @p data with @p codec and wrap every coded fragment with its
 * Merkle verification path (the paper's "hierarchical hashing").
 */
FragmentSet fragmentObject(const ErasureCodec &codec, const Bytes &data);

/**
 * Reassemble an object from surviving fragments.  Fragments failing
 * verification (corrupted or substituted by a malicious server) are
 * treated as erasures, preserving the erasure nature of the code.
 *
 * @param codec         same codec geometry used by fragmentObject
 * @param archive_guid  expected top-most hash
 * @param original_size original data length
 * @param available     surviving fragments, any order, may be corrupt
 */
std::optional<Bytes>
reassembleObject(const ErasureCodec &codec, const Guid &archive_guid,
                 std::size_t original_size,
                 const std::vector<Fragment> &available);

/**
 * Decode from fragments the caller has already verified against one
 * archive GUID, at most one per index: reassembleObject() without
 * hashing each fragment a second time.
 */
std::optional<Bytes>
decodeVerified(const ErasureCodec &codec, std::size_t original_size,
               const std::vector<Fragment> &verified);

} // namespace oceanstore

#endif // OCEANSTORE_ERASURE_FRAGMENT_H
