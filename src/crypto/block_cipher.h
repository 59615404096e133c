/**
 * @file
 * Position-dependent block cipher (Section 4.4.2).
 *
 * The ciphertext update operations — compare-block, replace-block,
 * append, and the pointer-block insert/delete scheme of Figure 4 —
 * assume "the encryption technology is a position-dependent block
 * cipher": encrypting the same plaintext at the same (object, block
 * index) yields the same ciphertext, so a client can compute the hash
 * of an encrypted block without a server round-trip.
 *
 * Substitution (documented in DESIGN.md): we implement this as a
 * keyed, position-tweaked pseudo-random stream derived from SHA-1 in
 * counter mode, XOR-ed with the plaintext.  This gives exactly the
 * determinism-per-position contract the paper's ops rely on.  It is
 * *not* a modern AEAD — deterministic encryption leaks equality of
 * blocks, which the paper itself acknowledges ("this scheme leaks a
 * small amount of information").
 *
 * The pads of one block share everything but their counter, so they
 * are computed side by side in SIMD lanes: one SHA-1 pass yields 16
 * pads with AVX-512F, 8 with AVX2 and 4 on any other machine (DESIGN.md
 * section 17).  Every width produces the same bytes.
 */

#ifndef OCEANSTORE_CRYPTO_BLOCK_CIPHER_H
#define OCEANSTORE_CRYPTO_BLOCK_CIPHER_H

#include <cstdint>

#include "crypto/sha1.h"
#include "util/bytes.h"

namespace oceanstore {

/**
 * Position-dependent symmetric cipher.
 *
 * Keystream for byte j of logical block i is byte (j mod 20) of
 * SHA1(key || i || j/20); encryption and decryption are both XOR with
 * that stream.
 */
class BlockCipher
{
  public:
    /** Construct with a symmetric read key (any length > 0). */
    explicit BlockCipher(Bytes key);

    /**
     * Encrypt @p plaintext as logical block @p block_index.
     * Deterministic: same key, index and plaintext give the same
     * ciphertext (required for compare-block, Section 4.4.3).
     */
    Bytes encrypt(std::uint64_t block_index, const Bytes &plaintext) const;

    /** Decrypt ciphertext produced by encrypt() at the same index. */
    Bytes decrypt(std::uint64_t block_index,
                  const Bytes &ciphertext) const;

    /**
     * encrypt() of the @p n bytes at @p plaintext, written to the @p n
     * bytes at @p out: lets a caller fill a framed block (a new Blob)
     * without an intermediate copy.
     */
    void encryptTo(std::uint64_t block_index, const std::uint8_t *plaintext,
                   std::size_t n, std::uint8_t *out) const
    {
        xorStream(block_index, plaintext, n, out);
    }

    /** decrypt() of the @p n bytes at @p ciphertext, appended to @p out. */
    void decryptAppend(std::uint64_t block_index,
                       const std::uint8_t *ciphertext, std::size_t n,
                       Bytes &out) const;

    /** The read key this cipher was constructed with. */
    const Bytes &key() const { return key_; }

  private:
    /** out[j] = in[j] ^ keystream byte j of block @p block_index. */
    void xorStream(std::uint64_t block_index, const std::uint8_t *in,
                   std::size_t n, std::uint8_t *out) const;

    Bytes key_;
    Sha1 keyed_; //!< SHA-1 midstate after absorbing key_
};

/**
 * out[j] = in[j] ^ keystream byte j of block @p block_index under
 * @p key, computed by the keystream kernel @p lanes pads wide: 16
 * (needs AVX-512F), 8 (needs AVX2) or 4 (portable).  BlockCipher runs
 * the widest this CPU has; this entry point lets tests hold every
 * width to the same bytes.
 * @return false, writing nothing, when this CPU cannot run @p lanes.
 */
bool cipherXorLanes(unsigned lanes, const Bytes &key,
                    std::uint64_t block_index, const std::uint8_t *in,
                    std::size_t n, std::uint8_t *out);

/** cipherXorLanes() at the portable 4-lane width, which every machine
 *  runs. */
void cipherXorPortable(const Bytes &key, std::uint64_t block_index,
                       const std::uint8_t *in, std::size_t n,
                       std::uint8_t *out);

} // namespace oceanstore

#endif // OCEANSTORE_CRYPTO_BLOCK_CIPHER_H
