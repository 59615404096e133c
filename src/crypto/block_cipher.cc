#include "crypto/block_cipher.h"

#include <algorithm>
#include <cstring>
#include <span>
#include <stdexcept>

#include "crypto/sha1_rounds.h"

namespace oceanstore {

namespace {

void
putBe64(std::uint8_t *out, std::uint64_t v)
{
    for (int k = 0; k < 8; k++)
        out[k] = static_cast<std::uint8_t>(v >> (56 - 8 * k));
}

/**
 * What every pad of one block shares.  Pad c of block i is the SHA-1
 * of key || i || c, with c as 8 big-endian bytes, and all of that
 * message but c is fixed.  `h` is the chaining state after the whole
 * 64-byte blocks of key || i; `w` holds the big-endian words of the
 * one or two blocks that follow: the rest of key || i, a zero counter
 * slot at byte `slot`, the 0x80 terminator, zeros and the bit length.
 */
struct PadTemplate
{
    std::uint32_t h[5];
    std::uint32_t w[32];
    unsigned blocks; //!< 1, or 2 when the slot starts past byte 47
    unsigned slot;
};

PadTemplate
makeTemplate(const Sha1 &keyed, std::size_t key_len,
             std::uint64_t block_index)
{
    Sha1 prefix = keyed;
    std::uint8_t index[8];
    putBe64(index, block_index);
    prefix.update(index, sizeof(index));

    PadTemplate t;
    std::copy_n(prefix.chainingState(), 5, t.h);
    const std::span<const std::uint8_t> tail = prefix.pending();
    std::uint8_t bytes[128] = {};
    std::copy(tail.begin(), tail.end(), bytes);
    t.slot = static_cast<unsigned>(tail.size());
    bytes[t.slot + 8] = 0x80;
    // The counter, the terminator and the 8-byte length must fit.
    t.blocks = t.slot + 8 + 1 + 8 <= 64 ? 1 : 2;
    putBe64(bytes + 64 * t.blocks - 8,
            (static_cast<std::uint64_t>(key_len) + 16) * 8);
    for (int k = 0; k < 32; k++)
        t.w[k] = sha1_rounds::loadWord(bytes + 4 * k);
    return t;
}

typedef std::uint32_t V4 __attribute__((vector_size(16)));
#if defined(__x86_64__)
typedef std::uint32_t V8 __attribute__((vector_size(32)));
typedef std::uint32_t V16 __attribute__((vector_size(64)));
#endif

/**
 * Pads chunk0 .. chunk0+N-1 in N lanes of V, lane l computing pad
 * chunk0 + l, written in order to @p pads (N × 20 bytes).  @p m holds
 * the template words broadcast to every lane; only the two words
 * (slot aligned) or three the counter covers differ between lanes, and
 * those are rewritten here.
 */
template <class V, unsigned N>
[[gnu::always_inline]] inline void
padLanes(const PadTemplate &t, V (&m)[32], std::uint64_t chunk0,
         std::uint8_t *pads)
{
    V lane;
    for (unsigned l = 0; l < N; l++)
        lane[l] = l;
    // The counter's big-endian halves.  chunk0 is a multiple of N,
    // which divides 2^32, so no lane's low half wraps.
    const V lo = static_cast<std::uint32_t>(chunk0) + lane;
    const V hi = V{} + static_cast<std::uint32_t>(chunk0 >> 32);
    const unsigned a = t.slot / 4;
    const unsigned s = 8 * (t.slot % 4);
    if (s == 0) {
        m[a] = hi;
        m[a + 1] = lo;
    } else {
        m[a] = t.w[a] | (hi >> s);
        m[a + 1] = (hi << (32 - s)) | (lo >> s);
        m[a + 2] = (lo << (32 - s)) | t.w[a + 2];
    }

    V h[5];
    for (int k = 0; k < 5; k++)
        h[k] = V{} + t.h[k];
    for (unsigned b = 0; b < t.blocks; b++) {
        V w[16];
        std::copy_n(m + 16 * b, 16, w);
        sha1_rounds::compress(h, w);
    }

    // Transpose: lane l's five words, big-endian, are pad l.
    std::uint32_t d[5][N];
    std::memcpy(d, h, sizeof(d));
    for (unsigned l = 0; l < N; l++) {
        for (int k = 0; k < 5; k++) {
            const std::uint32_t x = __builtin_bswap32(d[k][l]);
            std::memcpy(pads + 20 * l + 4 * k, &x, 4);
        }
    }
}

/** out[j] = in[j] ^ keystream byte j, N pads per SHA-1 pass. */
template <class V, unsigned N>
[[gnu::always_inline]] inline void
xorLanes(const PadTemplate &t, const std::uint8_t *in, std::size_t n,
         std::uint8_t *out)
{
    constexpr std::size_t kStride = 20 * N;
    V m[32];
    for (int k = 0; k < 32; k++)
        m[k] = V{} + t.w[k];
    std::uint8_t pads[kStride];
    std::uint64_t chunk = 0;
    for (std::size_t off = 0; off < n; off += kStride, chunk += N) {
        padLanes<V, N>(t, m, chunk, pads);
        // Whole vectors (a full stride is five), then single bytes.
        const std::size_t len = std::min(kStride, n - off);
        std::size_t j = 0;
        for (; j + sizeof(V) <= len; j += sizeof(V)) {
            V x;
            V pad;
            std::memcpy(&x, in + off + j, sizeof(V));
            std::memcpy(&pad, pads + j, sizeof(V));
            x ^= pad;
            std::memcpy(out + off + j, &x, sizeof(V));
        }
        for (; j < len; j++)
            out[off + j] = in[off + j] ^ pads[j];
    }
}

using XorFn = void (*)(const PadTemplate &, const std::uint8_t *,
                       std::size_t, std::uint8_t *);

void
xor4(const PadTemplate &t, const std::uint8_t *in, std::size_t n,
     std::uint8_t *out)
{
    xorLanes<V4, 4>(t, in, n, out);
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) void
xor8(const PadTemplate &t, const std::uint8_t *in, std::size_t n,
     std::uint8_t *out)
{
    xorLanes<V8, 8>(t, in, n, out);
}

__attribute__((target("avx512f"))) void
xor16(const PadTemplate &t, const std::uint8_t *in, std::size_t n,
      std::uint8_t *out)
{
    xorLanes<V16, 16>(t, in, n, out);
}
#endif

/** The kernel @p lanes pads wide, or null when this CPU lacks it. */
XorFn
kernelOfWidth(unsigned lanes)
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (lanes == 16)
        return __builtin_cpu_supports("avx512f") ? xor16 : nullptr;
    if (lanes == 8)
        return __builtin_cpu_supports("avx2") ? xor8 : nullptr;
#endif
    return lanes == 4 ? xor4 : nullptr;
}

/**
 * The widest kernel this CPU runs, picked on first use (a
 * function-local static, so encrypting from another translation
 * unit's static initialiser is safe).
 */
XorFn
widestKernel()
{
    static const XorFn fn = [] {
        for (unsigned lanes : {16u, 8u})
            if (XorFn f = kernelOfWidth(lanes))
                return f;
        return xor4;
    }();
    return fn;
}

} // namespace

BlockCipher::BlockCipher(Bytes key)
    : key_(std::move(key))
{
    if (key_.empty())
        throw std::invalid_argument("BlockCipher: empty key");
    keyed_.update(key_);
}

void
BlockCipher::xorStream(std::uint64_t block_index, const std::uint8_t *in,
                       std::size_t n, std::uint8_t *out) const
{
    widestKernel()(makeTemplate(keyed_, key_.size(), block_index), in, n,
                   out);
}

Bytes
BlockCipher::encrypt(std::uint64_t block_index, const Bytes &plaintext)
    const
{
    Bytes out(plaintext.size());
    xorStream(block_index, plaintext.data(), plaintext.size(), out.data());
    return out;
}

Bytes
BlockCipher::decrypt(std::uint64_t block_index, const Bytes &ciphertext)
    const
{
    return encrypt(block_index, ciphertext);
}

void
BlockCipher::decryptAppend(std::uint64_t block_index,
                           const std::uint8_t *ciphertext, std::size_t n,
                           Bytes &out) const
{
    const std::size_t at = out.size();
    out.resize(at + n);
    xorStream(block_index, ciphertext, n, out.data() + at);
}

bool
cipherXorLanes(unsigned lanes, const Bytes &key, std::uint64_t block_index,
               const std::uint8_t *in, std::size_t n, std::uint8_t *out)
{
    const XorFn fn = kernelOfWidth(lanes);
    if (fn == nullptr)
        return false;
    Sha1 keyed;
    keyed.update(key);
    fn(makeTemplate(keyed, key.size(), block_index), in, n, out);
    return true;
}

void
cipherXorPortable(const Bytes &key, std::uint64_t block_index,
                  const std::uint8_t *in, std::size_t n, std::uint8_t *out)
{
    cipherXorLanes(4, key, block_index, in, n, out);
}

} // namespace oceanstore
