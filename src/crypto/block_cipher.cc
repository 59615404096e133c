#include "crypto/block_cipher.h"

#include <algorithm>
#include <stdexcept>

namespace oceanstore {

namespace {

void
putBe64(std::uint8_t *out, std::uint64_t v)
{
    for (int k = 0; k < 8; k++)
        out[k] = static_cast<std::uint8_t>(v >> (56 - 8 * k));
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
    // SHA1(key || i || j/20): the key || i prefix is absorbed once, and
    // each 20-byte pad resumes from that midstate.
    Sha1 prefix = keyed_;
    std::uint8_t ctr[8];
    putBe64(ctr, block_index);
    prefix.update(ctr, sizeof(ctr));

    std::uint64_t chunk = 0;
    for (std::size_t off = 0; off < n; off += 20, chunk++) {
        Sha1 h = prefix;
        putBe64(ctr, chunk);
        h.update(ctr, sizeof(ctr));
        const Sha1Digest pad = h.finish();
        const std::size_t len = std::min<std::size_t>(20, n - off);
        for (std::size_t j = 0; j < len; j++)
            out[off + j] = in[off + j] ^ pad[j];
    }
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
BlockCipher::encryptAppend(std::uint64_t block_index,
                           const std::uint8_t *plaintext, std::size_t n,
                           Bytes &out) const
{
    const std::size_t at = out.size();
    out.resize(at + n);
    xorStream(block_index, plaintext, n, out.data() + at);
}

void
BlockCipher::decryptAppend(std::uint64_t block_index,
                           const std::uint8_t *ciphertext, std::size_t n,
                           Bytes &out) const
{
    encryptAppend(block_index, ciphertext, n, out);
}

} // namespace oceanstore
