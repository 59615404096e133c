#include "crypto/sha1.h"

#include <algorithm>
#include <cstring>
#include <utility>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "crypto/sha1_rounds.h"

namespace oceanstore {

void
sha1CompressPortable(std::uint32_t (&h)[5], const std::uint8_t *data,
                     std::size_t count)
{
    for (; count > 0; count--, data += 64) {
        std::uint32_t w[16];
        for (int i = 0; i < 16; i++)
            w[i] = sha1_rounds::loadWord(data + 4 * i);

        sha1_rounds::compress(h, w);
    }
}

namespace {

#if defined(__x86_64__)
/**
 * Rounds 4G..4G+3 with the SHA extensions.  m[G mod 4] holds
 * W[4G..4G+3] on entry; the same step advances the schedule for the
 * groups that follow (msg1 / xor / msg2 feed groups G+3, G+2, G+1),
 * and e[] alternates between the E carried into this group and the
 * one saved for the next.
 */
template <int G>
[[gnu::always_inline]] __attribute__((target("sha,sse4.1"))) inline void
shaNiGroup(__m128i &abcd, __m128i (&e)[2], __m128i (&m)[4],
           const std::uint8_t *block, __m128i bswap)
{
    __m128i &cur = m[G % 4];
    if constexpr (G < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(block + 16 * G)),
            bswap);
    }
    if constexpr (G == 0)
        e[0] = _mm_add_epi32(e[0], cur);
    else
        e[G % 2] = _mm_sha1nexte_epu32(e[G % 2], cur);
    e[(G + 1) % 2] = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e[G % 2], G / 5);
    if constexpr (G >= 1 && G <= 16)
        m[(G + 3) % 4] = _mm_sha1msg1_epu32(m[(G + 3) % 4], cur);
    if constexpr (G >= 2 && G <= 17)
        m[(G + 2) % 4] = _mm_xor_si128(m[(G + 2) % 4], cur);
    if constexpr (G >= 3 && G <= 18)
        m[(G + 1) % 4] = _mm_sha1msg2_epu32(m[(G + 1) % 4], cur);
}

template <std::size_t... G>
[[gnu::always_inline]] __attribute__((target("sha,sse4.1"))) inline void
shaNiGroups(__m128i &abcd, __m128i (&e)[2], __m128i (&m)[4],
            const std::uint8_t *block, __m128i bswap,
            std::index_sequence<G...>)
{
    (shaNiGroup<static_cast<int>(G)>(abcd, e, m, block, bswap), ...);
}

/** Compression with the x86 SHA extensions; same output as above. */
__attribute__((target("sha,sse4.1"))) void
compressShaNi(std::uint32_t (&h)[5], const std::uint8_t *data,
              std::size_t count)
{
    // Reverses all 16 bytes: big-endian words, W0 in the top lane.
    const __m128i bswap =
        _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
    __m128i abcd = _mm_shuffle_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(h)), 0x1b);
    __m128i e0 = _mm_set_epi32(static_cast<int>(h[4]), 0, 0, 0);
    for (; count > 0; count--, data += 64) {
        const __m128i abcd_save = abcd;
        const __m128i e0_save = e0;
        __m128i e[2] = {e0, e0};
        __m128i m[4];
        shaNiGroups(abcd, e, m, data, bswap, std::make_index_sequence<20>{});
        e0 = _mm_sha1nexte_epu32(e[0], e0_save);
        abcd = _mm_add_epi32(abcd, abcd_save);
    }
    _mm_storeu_si128(reinterpret_cast<__m128i *>(h),
                     _mm_shuffle_epi32(abcd, 0x1b));
    h[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e0, 3));
}
#endif

using CompressFn = void (*)(std::uint32_t (&)[5], const std::uint8_t *,
                            std::size_t);

CompressFn
pickCompress()
{
#if defined(__x86_64__)
    // CPUID leaf 7 EBX bit 29: SHA extensions; leaf 1 ECX bit 19:
    // SSE4.1.  (Read directly: not every compiler's
    // __builtin_cpu_supports knows "sha".)
    unsigned a = 0, b = 0, c = 0, d = 0;
    bool sha = __get_cpuid_count(7, 0, &a, &b, &c, &d) &&
               ((b >> 29) & 1u) != 0;
    bool sse41 = __get_cpuid(1, &a, &b, &c, &d) && ((c >> 19) & 1u) != 0;
    if (sha && sse41)
        return compressShaNi;
#endif
    return sha1CompressPortable;
}

/**
 * Compress @p count blocks with the implementation for this CPU, picked
 * on first use (a function-local static, so hashing from another
 * translation unit's static initialiser is safe).
 */
void
compress(std::uint32_t (&h)[5], const std::uint8_t *data, std::size_t count)
{
    static const CompressFn fn = pickCompress();
    fn(h, data, count);
}

} // namespace

Sha1::Sha1()
    : bufferLen_(0), totalLen_(0)
{
    h_[0] = 0x67452301u;
    h_[1] = 0xefcdab89u;
    h_[2] = 0x98badcfeu;
    h_[3] = 0x10325476u;
    h_[4] = 0xc3d2e1f0u;
}


void
Sha1::update(const std::uint8_t *data, std::size_t n)
{
    if (n == 0)
        return;
    totalLen_ += n;
    if (bufferLen_ > 0) {
        std::size_t take = std::min(n, sizeof(buffer_) - bufferLen_);
        std::memcpy(buffer_ + bufferLen_, data, take);
        bufferLen_ += take;
        data += take;
        n -= take;
        if (bufferLen_ < sizeof(buffer_))
            return;
        compress(h_, buffer_, 1);
        bufferLen_ = 0;
    }
    // Whole blocks straight from the caller's buffer.
    std::size_t blocks = n / sizeof(buffer_);
    compress(h_, data, blocks);
    data += blocks * sizeof(buffer_);
    n -= blocks * sizeof(buffer_);
    std::memcpy(buffer_, data, n);
    bufferLen_ = n;
}

void
Sha1::update(std::string_view s)
{
    update(reinterpret_cast<const std::uint8_t *>(s.data()), s.size());
}

Sha1Digest
Sha1::finish()
{
    std::uint64_t bit_len = totalLen_ * 8;

    // Append the 0x80 terminator, then zero-pad so 8 bytes remain for
    // the length field in the final block (spilling into one more
    // block when fewer than 8 are left).
    buffer_[bufferLen_++] = 0x80;
    if (bufferLen_ > 56) {
        std::memset(buffer_ + bufferLen_, 0, sizeof(buffer_) - bufferLen_);
        compress(h_, buffer_, 1);
        bufferLen_ = 0;
    }
    std::memset(buffer_ + bufferLen_, 0, 56 - bufferLen_);
    for (int i = 0; i < 8; i++)
        buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
    compress(h_, buffer_, 1);

    Sha1Digest out;
    for (int i = 0; i < 5; i++) {
        out[i * 4] = static_cast<std::uint8_t>(h_[i] >> 24);
        out[i * 4 + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
        out[i * 4 + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
        out[i * 4 + 3] = static_cast<std::uint8_t>(h_[i]);
    }
    return out;
}

Sha1Digest
Sha1::hash(ByteSpan b)
{
    Sha1 s;
    s.update(b.data(), b.size());
    return s.finish();
}

Sha1Digest
Sha1::hash(std::string_view str)
{
    Sha1 s;
    s.update(str);
    return s.finish();
}

Bytes
digestToBytes(const Sha1Digest &d)
{
    return Bytes(d.begin(), d.end());
}

std::string
digestToHex(const Sha1Digest &d)
{
    return hexEncode(digestToBytes(d));
}

} // namespace oceanstore
