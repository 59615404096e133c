/**
 * @file
 * Client-side object handle.
 *
 * Only clients can be trusted with cleartext (Section 1.2): all
 * encryption, decryption, search-index construction and update
 * signing happens here, so that everything handed to the
 * infrastructure is ciphertext plus signatures.  The handle owns the
 * object's read key (position-dependent block cipher), search key and
 * the writer's signing key pair, and turns plaintext edits into the
 * predicate/action updates of Section 4.4.
 */

#ifndef OCEANSTORE_CORE_OBJECT_HANDLE_H
#define OCEANSTORE_CORE_OBJECT_HANDLE_H

#include <string>
#include <vector>

#include "consistency/data_object.h"
#include "consistency/update.h"
#include "crypto/block_cipher.h"
#include "crypto/keys.h"
#include "crypto/searchable.h"

namespace oceanstore {

/** Fixed logical block size used by the handle's helpers. */
constexpr std::size_t defaultBlockSize = 4096;

/** A client's capability bundle for one object. */
class ObjectHandle
{
  public:
    /**
     * Mint a handle for a new object: GUID is the self-certifying
     * hash of the owner key and name (Section 4.1); fresh read and
     * search keys are derived deterministically from the owner's
     * private key and the name (a real client would generate and
     * escrow random keys).
     */
    ObjectHandle(const KeyPair &owner, const std::string &name,
                 std::size_t block_size = defaultBlockSize);

    /** The object's GUID. */
    const Guid &guid() const { return guid_; }

    /** The human-readable name the GUID was minted from. */
    const std::string &name() const { return name_; }

    /** The writer's public key (what ACL entries name). */
    const Bytes &writerPublicKey() const { return owner_.publicKey; }

    /** Logical block size. */
    std::size_t blockSize() const { return blockSize_; }

    // --- plaintext <-> ciphertext ------------------------------------

    /** Split plaintext into block-size chunks (last may be short). */
    std::vector<Bytes> splitBlocks(const Bytes &plaintext) const;

    /**
     * Encrypt plaintext as the block at @p position.  The ciphertext
     * embeds an 8-byte position header (an IV): inserts and deletes
     * shift *logical* positions, but each block remembers the cipher
     * position it was issued at, so decryption never needs external
     * bookkeeping and compare-block stays client-predictable.
     */
    Blob encryptBlock(std::uint64_t position, const Bytes &plain) const;

    /** Decrypt a ciphertext block (position read from its header). */
    Bytes decryptBlock(ByteSpan cipher) const;

    /** Decrypt a whole object's logical blocks into one buffer. */
    Bytes decryptContent(const std::vector<Bytes> &logical_blocks) const;

    /** Build the encrypted search index for a document. */
    SearchIndex buildSearchIndex(std::string_view document) const;

    /** Produce a search trapdoor for servers. */
    SearchTrapdoor searchTrapdoor(std::string_view word) const;

    // --- update construction ------------------------------------------

    /**
     * Append the whole plaintext as encrypted blocks, guarded by a
     * compare-version predicate against @p expected_version, with an
     * up-to-date search index.
     */
    Update makeAppendUpdate(const Bytes &plaintext,
                            VersionNum expected_version,
                            Timestamp ts) const;

    /** Replace logical block @p position with new plaintext. */
    Update makeReplaceUpdate(std::uint64_t position, const Bytes &plain,
                             VersionNum expected_version,
                             Timestamp ts) const;

    /** Insert a block before @p position (Figure 4 semantics). */
    Update makeInsertUpdate(std::uint64_t position, const Bytes &plain,
                            VersionNum expected_version,
                            Timestamp ts) const;

    /** Delete logical block @p position. */
    Update makeDeleteUpdate(std::uint64_t position,
                            VersionNum expected_version,
                            Timestamp ts) const;

    /**
     * Build an update from explicit clauses (for ACID transactions
     * and custom conflict resolution), then sign it.
     */
    Update makeUpdate(std::vector<UpdateClause> clauses,
                      Timestamp ts) const;

    /**
     * Predicate helper: "the ciphertext block at logical position
     * @p logical_position equals the encryption of @p plain at cipher
     * position @p cipher_position" — computable entirely client-side
     * thanks to the position-dependent cipher (Section 4.4.3): the
     * client hashes the predicted ciphertext without any round-trip.
     */
    CompareBlock expectBlock(std::uint64_t logical_position,
                             std::uint64_t cipher_position,
                             const Bytes &plain) const;

  private:
    void sign(Update &u) const;

    KeyPair owner_;
    std::string name_;
    Guid guid_;
    std::size_t blockSize_;
    BlockCipher readCipher_;
    SearchableCipher searchCipher_;
};

} // namespace oceanstore

#endif // OCEANSTORE_CORE_OBJECT_HANDLE_H
