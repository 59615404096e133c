#include "erasure/gf256.h"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "util/logging.h"

namespace oceanstore {
namespace gf256 {

namespace {

struct Tables
{
    std::array<std::uint8_t, 256> logTable;
    std::array<std::uint8_t, 512> expTable; // doubled to skip a mod
    /**
     * Split-nibble products per coefficient c: nibble[c][x] = c * x and
     * nibble[c][16 + x] = c * (x << 4) for x < 16, so that
     * c * s = nibble[c][s & 15] ^ nibble[c][16 + (s >> 4)].
     */
    std::array<std::array<std::uint8_t, 32>, 256> nibble;
    bool avx2 = false;

    Tables()
    {
        // Generator 2 over primitive polynomial 0x11d.
        unsigned x = 1;
        for (unsigned i = 0; i < 255; i++) {
            expTable[i] = static_cast<std::uint8_t>(x);
            logTable[x] = static_cast<std::uint8_t>(i);
            x <<= 1;
            if (x & 0x100)
                x ^= 0x11d;
        }
        for (unsigned i = 255; i < 512; i++)
            expTable[i] = expTable[i - 255];
        logTable[0] = 0; // undefined; guarded by callers

        for (unsigned c = 0; c < 256; c++) {
            for (unsigned x = 0; x < 16; x++) {
                nibble[c][x] = product(c, x);
                nibble[c][16 + x] = product(c, x << 4);
            }
        }

#if defined(__x86_64__)
        // Runs during static initialisation, before the CPU model the
        // feature query reads is guaranteed to be set up.
        __builtin_cpu_init();
        avx2 = __builtin_cpu_supports("avx2");
#endif
    }

    std::uint8_t
    product(unsigned a, unsigned b) const
    {
        if (a == 0 || b == 0)
            return 0;
        return expTable[logTable[a] + logTable[b]];
    }
};

const Tables tables;

#if defined(__x86_64__)
/**
 * The vector body of mulAdd: 32 bytes per step, each half-byte looked
 * up in a 16-entry table with one PSHUFB (Plank, Greenan & Miller,
 * FAST 2013).  Compiled for AVX2 on its own so the rest of the tree
 * needs no -mavx2; only called when the CPU has it.  Returns how many
 * leading bytes it handled.
 */
__attribute__((target("avx2"))) std::size_t
mulAddAvx2(std::uint8_t *dst, const std::uint8_t *src,
           const std::uint8_t *tbl, std::size_t n)
{
    const __m256i lo = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(tbl)));
    const __m256i hi = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(tbl + 16)));
    const __m256i mask = _mm256_set1_epi8(0x0f);
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i s =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(src + i));
        const __m256i prod = _mm256_xor_si256(
            _mm256_shuffle_epi8(lo, _mm256_and_si256(s, mask)),
            _mm256_shuffle_epi8(
                hi, _mm256_and_si256(_mm256_srli_epi64(s, 4), mask)));
        auto *d = reinterpret_cast<__m256i *>(dst + i);
        _mm256_storeu_si256(d,
                            _mm256_xor_si256(_mm256_loadu_si256(d), prod));
    }
    return i;
}
#endif

} // namespace

std::uint8_t
mul(std::uint8_t a, std::uint8_t b)
{
    return tables.product(a, b);
}

std::uint8_t
inv(std::uint8_t a)
{
    if (a == 0)
        panic("gf256::inv(0)");
    return tables.expTable[255 - tables.logTable[a]];
}

std::uint8_t
div(std::uint8_t a, std::uint8_t b)
{
    if (b == 0)
        panic("gf256::div by zero");
    if (a == 0)
        return 0;
    return tables.expTable[tables.logTable[a] + 255 -
                           tables.logTable[b]];
}

std::uint8_t
pow(std::uint8_t a, unsigned n)
{
    if (n == 0)
        return 1;
    if (a == 0)
        return 0;
    // Reduce the exponent first: a^255 = 1 for non-zero a, and
    // log(a) * n can wrap unsigned for large n, silently corrupting
    // the result.
    unsigned l = (tables.logTable[a] * (n % 255u)) % 255u;
    return tables.expTable[l];
}

void
mulAdd(std::uint8_t *dst, const std::uint8_t *src, std::uint8_t c,
       std::size_t n)
{
    if (c == 0)
        return;
    const std::uint8_t *tbl = tables.nibble[c].data();
    std::size_t i = 0;
#if defined(__x86_64__)
    if (tables.avx2)
        i = mulAddAvx2(dst, src, tbl, n);
#endif
    // Tail, and the whole buffer on machines without AVX2.
    for (; i < n; i++)
        dst[i] ^= tbl[src[i] & 15] ^ tbl[16 + (src[i] >> 4)];
}

} // namespace gf256
} // namespace oceanstore
