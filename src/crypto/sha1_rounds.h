/**
 * @file
 * The 80 rounds of the SHA-1 compression function (FIPS 180-1), written
 * once over the word type, and the big-endian message word load.
 *
 * `sha1CompressPortable` runs them on `std::uint32_t`; the block
 * cipher's keystream kernel runs them on a GCC/Clang vector of 32-bit
 * lanes, one independent message per lane.  Every operation used here
 * (shifts by a constant, and, or, xor, add of a scalar constant) means
 * the same thing lane by lane.
 */

#ifndef OCEANSTORE_CRYPTO_SHA1_ROUNDS_H
#define OCEANSTORE_CRYPTO_SHA1_ROUNDS_H

#include <cstddef>
#include <cstdint>
#include <utility>

namespace oceanstore {
namespace sha1_rounds {

/** The big-endian message word at @p p. */
inline std::uint32_t
loadWord(const std::uint8_t *p)
{
    return (static_cast<std::uint32_t>(p[0]) << 24) |
           (static_cast<std::uint32_t>(p[1]) << 16) |
           (static_cast<std::uint32_t>(p[2]) << 8) |
           static_cast<std::uint32_t>(p[3]);
}

/**
 * Round @p I of the compression function.  The five working variables
 * never move: round I reads a..e from v[] rotated by I mod 5, so after
 * inlining every index is a constant and v[] lives in registers.  The
 * message schedule is a 16-word ring, w[i mod 16] overwritten by
 * w[i] = rotl1(w[i-3] ^ w[i-8] ^ w[i-14] ^ w[i-16]) as it is needed.
 */
template <int I, class W>
[[gnu::always_inline]] inline void
step(W (&v)[5], W (&w)[16])
{
    constexpr int r = I % 5;
    const W a = v[(5 - r) % 5];
    W &b = v[(6 - r) % 5];
    const W c = v[(7 - r) % 5];
    const W d = v[(8 - r) % 5];
    W &e = v[(9 - r) % 5];

    // Rotations are spelled out: a helper returning W by value would
    // change the vector ABI between the kernels' instruction sets.
    W wi;
    if constexpr (I < 16) {
        wi = w[I];
    } else {
        const W x = w[(I + 13) & 15] ^ w[(I + 8) & 15] ^ w[(I + 2) & 15] ^
                    w[I & 15];
        wi = (x << 1) | (x >> 31);
        w[I & 15] = wi;
    }

    W f;
    std::uint32_t k;
    if constexpr (I < 20) {
        f = d ^ (b & (c ^ d)); // choose
        k = 0x5a827999u;
    } else if constexpr (I < 40) {
        f = b ^ c ^ d; // parity
        k = 0x6ed9eba1u;
    } else if constexpr (I < 60) {
        f = (b & c) | (d & (b | c)); // majority
        k = 0x8f1bbcdcu;
    } else {
        f = b ^ c ^ d;
        k = 0xca62c1d6u;
    }
    e += ((a << 5) | (a >> 27)) + f + k + wi;
    b = (b << 30) | (b >> 2);
}

template <class W, std::size_t... I>
[[gnu::always_inline]] inline void
steps(W (&v)[5], W (&w)[16], std::index_sequence<I...>)
{
    (step<static_cast<int>(I)>(v, w), ...);
}

/**
 * Fold one 64-byte block, given as its 16 big-endian message words
 * @p w (consumed as the schedule), into the chaining state @p h.
 */
template <class W>
[[gnu::always_inline]] inline void
compress(W (&h)[5], W (&w)[16])
{
    W v[5] = {h[0], h[1], h[2], h[3], h[4]};
    steps(v, w, std::make_index_sequence<80>{});
    for (int i = 0; i < 5; i++)
        h[i] += v[i];
}

} // namespace sha1_rounds
} // namespace oceanstore

#endif // OCEANSTORE_CRYPTO_SHA1_ROUNDS_H
