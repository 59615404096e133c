/**
 * @file
 * Arithmetic in GF(2^8), the substrate for Reed-Solomon coding
 * (Section 4.5, citing Plank's tutorial [39]).
 *
 * Field elements are bytes; addition is XOR; multiplication uses
 * log/antilog tables over the primitive polynomial x^8+x^4+x^3+x^2+1
 * (0x11d).  The bulk kernel mulAdd() uses split-nibble product tables
 * instead, with an AVX2 body chosen once at start-up (DESIGN.md).
 */

#ifndef OCEANSTORE_ERASURE_GF256_H
#define OCEANSTORE_ERASURE_GF256_H

#include <cstddef>
#include <cstdint>

namespace oceanstore {
namespace gf256 {

/** Addition (= subtraction) in GF(2^8). */
inline std::uint8_t
add(std::uint8_t a, std::uint8_t b)
{
    return a ^ b;
}

/** Multiplication in GF(2^8). */
std::uint8_t mul(std::uint8_t a, std::uint8_t b);

/** Multiplicative inverse; @p a must be non-zero. */
std::uint8_t inv(std::uint8_t a);

/** Division a / b; @p b must be non-zero. */
std::uint8_t div(std::uint8_t a, std::uint8_t b);

/** a raised to the n-th power. */
std::uint8_t pow(std::uint8_t a, unsigned n);

/**
 * Multiply-accumulate over a buffer: dst[i] ^= c * src[i].
 * The inner loop of Reed-Solomon encoding and decoding.
 */
void mulAdd(std::uint8_t *dst, const std::uint8_t *src, std::uint8_t c,
            std::size_t n);

} // namespace gf256
} // namespace oceanstore

#endif // OCEANSTORE_ERASURE_GF256_H
