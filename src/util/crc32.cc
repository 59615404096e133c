#include "util/crc32.h"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace oceanstore {

namespace {

/**
 * Slicing-by-8 tables (Kounavis & Berry, 2008): slice[0] is the
 * classic byte table of the reflected polynomial, and slice[k][b] is
 * the CRC of byte b followed by k zero bytes, so eight table lookups
 * advance the register by eight bytes.  Built at compile time, so a
 * checksum taken during another translation unit's static
 * initialisation is already correct.
 */
using SliceTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr SliceTables
makeSliceTables()
{
    SliceTables t{};
    for (std::uint32_t i = 0; i < 256; i++) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; k++)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; k++)
        for (std::size_t i = 0; i < 256; i++)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    return t;
}

constexpr SliceTables slice = makeSliceTables();

std::uint32_t
loadLe32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

/** Advance the (pre-inverted) CRC register @p crc over @p n bytes,
 *  eight at a time, then byte by byte through slice[0]. */
std::uint32_t
sliceBy8(std::uint32_t crc, const std::uint8_t *p, std::size_t n)
{
    for (; n >= 8; p += 8, n -= 8) {
        const std::uint32_t lo = crc ^ loadLe32(p);
        const std::uint32_t hi = loadLe32(p + 4);
        crc = slice[7][lo & 0xffu] ^ slice[6][(lo >> 8) & 0xffu] ^
              slice[5][(lo >> 16) & 0xffu] ^ slice[4][lo >> 24] ^
              slice[3][hi & 0xffu] ^ slice[2][(hi >> 8) & 0xffu] ^
              slice[1][(hi >> 16) & 0xffu] ^ slice[0][hi >> 24];
    }
    for (; n > 0; p++, n--)
        crc = slice[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
    return crc;
}

#if defined(__x86_64__)
/** One 16-byte load, no alignment assumed. */
__attribute__((target("pclmul,sse4.1"))) inline __m128i
load128(const std::uint8_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

/** acc * x^d + next, where @p k holds the reflected constants of the
 *  fold distance d for acc's low and high halves. */
__attribute__((target("pclmul,sse4.1"))) inline __m128i
fold(__m128i acc, __m128i k, __m128i next)
{
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                       _mm_clmulepi64_si128(acc, k, 0x11)),
                         next);
}

/**
 * Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
 * Generic Polynomials Using PCLMULQDQ", Intel 2009), in the bit-
 * reflected domain.  Four 128-bit accumulators each fold 64 bytes
 * ahead per step; they are then folded into one, which folds in any
 * remaining 16-byte blocks, is reduced to 64 bits, and a Barrett
 * reduction yields the 32-bit register.  Each constant is
 * x^e mod P(x), bit-reflected and shifted left by one:
 *
 *   k1 = x^544, k2 = x^480   fold across 512 bits (4 x 128)
 *   k3 = x^160, k4 = x^96    fold across 128 bits
 *   k5 = x^64                128 -> 64 bits
 *   mu = x^64 / P(x), p = P(x) (33-bit, reflected) for Barrett.
 *
 * Compiled for PCLMUL + SSE4.1 on its own so the rest of the tree
 * needs no -mpclmul; only called when the CPU has both.  @p n must be
 * at least 64 and a multiple of 16.
 */
__attribute__((target("pclmul,sse4.1"))) std::uint32_t
foldPclmul(std::uint32_t crc, const std::uint8_t *p, std::size_t n)
{
    const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
    const __m128i mu_p = _mm_set_epi64x(0x1f7011641, 0x1db710641);
    const __m128i low32 = _mm_set_epi32(0, ~0, 0, ~0);

    __m128i x0 = _mm_xor_si128(
        load128(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
    __m128i x1 = load128(p + 16);
    __m128i x2 = load128(p + 32);
    __m128i x3 = load128(p + 48);
    for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
        x0 = fold(x0, k1k2, load128(p));
        x1 = fold(x1, k1k2, load128(p + 16));
        x2 = fold(x2, k1k2, load128(p + 32));
        x3 = fold(x3, k1k2, load128(p + 48));
    }

    __m128i x = fold(fold(fold(x0, k3k4, x1), k3k4, x2), k3k4, x3);
    for (; n >= 16; p += 16, n -= 16)
        x = fold(x, k3k4, load128(p));

    // 128 -> 96 bits (low half times k4), then 96 -> 64 (low word
    // times k5).
    x = _mm_xor_si128(_mm_srli_si128(x, 8),
                      _mm_clmulepi64_si128(x, k3k4, 0x10));
    x = _mm_xor_si128(_mm_srli_si128(x, 4),
                      _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5,
                                           0x00));

    // Barrett: q = (x mod x^32) * mu mod x^32, then x ^= q * P.
    __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), mu_p, 0x10);
    q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), mu_p, 0x00);
    return static_cast<std::uint32_t>(
        _mm_extract_epi32(_mm_xor_si128(x, q), 1));
}

bool
cpuHasPclmul()
{
    // Runs during static initialisation, before the CPU model the
    // feature query reads is guaranteed to be set up.
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
}

/** Picked once at start-up.  A checksum taken before this initialiser
 *  runs sees the zero-initialised false and takes the portable path,
 *  which gives the same answer. */
const bool usePclmul = cpuHasPclmul();
#endif

} // namespace

std::uint32_t
crc32(const std::uint8_t *data, std::size_t n)
{
    std::uint32_t crc = 0xffffffffu;
#if defined(__x86_64__)
    if (n >= 64 && usePclmul) {
        const std::size_t bulk = n & ~std::size_t{15};
        crc = foldPclmul(crc, data, bulk);
        data += bulk;
        n -= bulk;
    }
#endif
    return sliceBy8(crc, data, n) ^ 0xffffffffu;
}

std::uint32_t
crc32Portable(const std::uint8_t *data, std::size_t n)
{
    return sliceBy8(0xffffffffu, data, n) ^ 0xffffffffu;
}

} // namespace oceanstore
