/**
 * @file
 * SHA-1 secure hash (FIPS 180-1), implemented from scratch.
 *
 * The paper's prototype uses SHA-1 for all secure hashing (footnote 3):
 * object GUIDs, server GUIDs, fragment GUIDs and the hierarchical
 * fragment-verification trees.  SHA-1 is cryptographically broken
 * today, but we reproduce the paper's choice faithfully; nothing in the
 * library depends on collision resistance beyond what the 2000-era
 * design assumed.
 */

#ifndef OCEANSTORE_CRYPTO_SHA1_H
#define OCEANSTORE_CRYPTO_SHA1_H

#include <array>
#include <cstdint>
#include <span>

#include "util/bytes.h"

namespace oceanstore {

/** A 160-bit SHA-1 digest. */
using Sha1Digest = std::array<std::uint8_t, 20>;

/**
 * Incremental SHA-1 hasher.
 *
 * Usage: construct, update() any number of times, then finish().
 * After finish() the object must not be reused.
 */
class Sha1
{
  public:
    Sha1();

    /** Absorb @p n bytes at @p data. */
    void update(const std::uint8_t *data, std::size_t n);

    /** Absorb a byte buffer. */
    void update(const Bytes &b) { update(b.data(), b.size()); }

    /** Absorb the raw characters of a string. */
    void update(std::string_view s);

    /**
     * Apply padding and produce the final digest.  Copying a Sha1
     * before this snapshots its midstate, so a shared prefix can be
     * absorbed once and resumed many times.
     */
    Sha1Digest finish();

    /**
     * The chaining state after the whole 64-byte blocks absorbed so
     * far.  With pending() it is all a caller needs to pad and finish
     * the message itself (the block cipher does, many pads at once).
     */
    const std::uint32_t (&chainingState() const)[5] { return h_; }

    /** The bytes absorbed since the last whole block (fewer than 64). */
    std::span<const std::uint8_t> pending() const
    {
        return {buffer_, bufferLen_};
    }

    /** One-shot convenience: digest of a single buffer. */
    static Sha1Digest hash(ByteSpan b);

    /** One-shot convenience: digest of a string's characters. */
    static Sha1Digest hash(std::string_view s);

  private:
    std::uint32_t h_[5];
    std::uint8_t buffer_[64];
    std::size_t bufferLen_;
    std::uint64_t totalLen_;
};

/**
 * The portable SHA-1 compression function: folds @p count 64-byte
 * blocks at @p blocks into the chaining state @p h.  Sha1 uses the x86
 * SHA extensions instead when the CPU has them; this entry point lets
 * tests hold the portable code to the same known answers there.
 */
void sha1CompressPortable(std::uint32_t (&h)[5], const std::uint8_t *blocks,
                          std::size_t count);

/** Convert a digest to a Bytes buffer. */
Bytes digestToBytes(const Sha1Digest &d);

/** Lower-case hex encoding of a digest. */
std::string digestToHex(const Sha1Digest &d);

} // namespace oceanstore

#endif // OCEANSTORE_CRYPTO_SHA1_H
