/**
 * @file
 * Globally unique identifiers (Section 4.1).
 *
 * Every addressable OceanStore entity — object, server, archival
 * fragment, client — is identified by a GUID: a pseudo-random,
 * fixed-length (160-bit) bit string.  Object GUIDs are the secure hash
 * of the owner's public key and a human-readable name (self-certifying
 * names); server GUIDs are the hash of the server's public key; a
 * fragment GUID is the hash of the data it holds.
 */

#ifndef OCEANSTORE_CRYPTO_GUID_H
#define OCEANSTORE_CRYPTO_GUID_H

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "crypto/sha1.h"
#include "util/bytes.h"
#include "util/random.h"

namespace oceanstore {

/**
 * A 160-bit globally unique identifier.
 *
 * Provides the digit view used by the Plaxton/Tapestry-style routing
 * mesh (Section 4.3.3): the ID is interpreted as 40 hexadecimal digits
 * and routed one digit at a time starting from the *least* significant
 * digit, matching the paper's "lowest N-1 nibbles" construction.
 */
class Guid
{
  public:
    static constexpr std::size_t numBytes = 20;
    /** Bits per routing digit (one nibble, as in Figure 3). */
    static constexpr unsigned digitBits = 4;
    /** Number of routing digits in an ID. */
    static constexpr std::size_t numDigits = numBytes * 8 / digitBits;
    /** Number of distinct digit values (the routing-table fan-out). */
    static constexpr unsigned digitBase = 1u << digitBits;

    /** The all-zero GUID (used as a sentinel "no GUID"). */
    Guid() : bytes_{} {}

    /** Construct from a SHA-1 digest. */
    explicit Guid(const Sha1Digest &d);

    /** Hash arbitrary bytes into a GUID. */
    static Guid hashOf(ByteSpan data);

    /** Hash a string's characters into a GUID. */
    static Guid hashOf(std::string_view s);

    /**
     * Derive a self-certifying object GUID from the owner's public key
     * and a human-readable name (Section 4.1).  Any server can verify
     * the owner by recomputing the hash.
     */
    static Guid forObject(const Bytes &owner_pub_key,
                          std::string_view name);

    /** Server GUID: secure hash of the server's public key. */
    static Guid forServer(const Bytes &server_pub_key);

    /** Fragment GUID: secure hash over the fragment data. */
    static Guid forFragment(const Bytes &fragment_data);

    /** Uniformly random GUID from a deterministic generator. */
    static Guid random(Rng &rng);

    /** Parse 40 hex characters; nullopt for anything else. */
    static std::optional<Guid> fromHex(std::string_view hex);

    /** Adopt exactly 20 raw bytes.  @throws std::invalid_argument on
     *  another length, a caller's error: a decoder reads a GUID with
     *  ByteReader::getRaw(out, numBytes) instead. */
    static Guid fromBytes(const Bytes &raw);

    /**
     * Salted variant: hash of this GUID concatenated with a salt value.
     * Used to derive multiple Plaxton roots per object so no single
     * root is a point of failure (Section 4.3.3).
     */
    Guid withSalt(std::uint32_t salt) const;

    /**
     * Routing digit @p i, counting from the least significant nibble
     * (digit 0 = low nibble of the last byte).
     */
    unsigned digit(std::size_t i) const;

    /**
     * Length of the common suffix (in digits) with @p other, i.e. the
     * number of consecutive matching digits starting at digit 0.
     */
    std::size_t matchingSuffix(const Guid &other) const;

    /**
     * Copy of this GUID with routing digit @p i replaced by @p value.
     * Used by surrogate routing when the exact next-digit neighbor
     * does not exist (Section 4.3.3).
     */
    Guid withDigit(std::size_t i, unsigned value) const;

    /** Raw bytes, big-endian (digit 0 lives in bytes()[19] & 0xf). */
    const std::array<std::uint8_t, numBytes> &bytes() const
    {
        return bytes_;
    }

    /** Copy into a Bytes buffer. */
    Bytes toBytes() const { return Bytes(bytes_.begin(), bytes_.end()); }

    /** Full 40-character hex form. */
    std::string hex() const;

    /** First 8 hex characters, for logs. */
    std::string shortHex() const;

    /** True unless this is the all-zero sentinel. */
    bool valid() const;

    /** Stable 64-bit hash (for unordered containers and Bloom seeds). */
    std::uint64_t hash64() const;

    auto operator<=>(const Guid &) const = default;

  private:
    std::array<std::uint8_t, numBytes> bytes_;
};

/**
 * Storage key "<prefix><40 hex digits>/<n in decimal>", the form of
 * the archival "frag/" and the mesh "ptr/" records.
 */
std::string guidKey(std::string_view prefix, const Guid &g,
                    std::uint32_t n);

/**
 * Parse a guidKey() with @p prefix.  nullopt for any other key; each
 * caller decides what an unparsable key means.
 */
std::optional<std::pair<Guid, std::uint32_t>>
parseGuidKey(std::string_view key, std::string_view prefix);

} // namespace oceanstore

/** std::hash support so Guid can key unordered containers. */
template <>
struct std::hash<oceanstore::Guid>
{
    std::size_t
    operator()(const oceanstore::Guid &g) const noexcept
    {
        return static_cast<std::size_t>(g.hash64());
    }
};

#endif // OCEANSTORE_CRYPTO_GUID_H
