/** @file Position-dependent block cipher tests (Section 4.4.2). */

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "crypto/block_cipher.h"

namespace oceanstore {
namespace {

TEST(BlockCipher, RoundTrip)
{
    BlockCipher c(toBytes("read-key"));
    Bytes plain = toBytes("some confidential block content");
    Bytes cipher = c.encrypt(3, plain);
    EXPECT_NE(cipher, plain);
    EXPECT_EQ(c.decrypt(3, cipher), plain);
}

TEST(BlockCipher, DeterministicPerPosition)
{
    // The property compare-block depends on: same key, position and
    // plaintext always give the same ciphertext.
    BlockCipher c(toBytes("k"));
    Bytes plain = toBytes("block");
    EXPECT_EQ(c.encrypt(7, plain), c.encrypt(7, plain));
}

TEST(BlockCipher, PositionChangesCiphertext)
{
    BlockCipher c(toBytes("k"));
    Bytes plain = toBytes("identical plaintext");
    EXPECT_NE(c.encrypt(0, plain), c.encrypt(1, plain));
}

TEST(BlockCipher, KeyChangesCiphertext)
{
    Bytes plain = toBytes("identical plaintext");
    EXPECT_NE(BlockCipher(toBytes("k1")).encrypt(0, plain),
              BlockCipher(toBytes("k2")).encrypt(0, plain));
}

TEST(BlockCipher, WrongPositionDecryptsGarbage)
{
    BlockCipher c(toBytes("k"));
    Bytes plain = toBytes("block content here");
    Bytes cipher = c.encrypt(5, plain);
    EXPECT_NE(c.decrypt(6, cipher), plain);
}

TEST(BlockCipher, EmptyBlock)
{
    BlockCipher c(toBytes("k"));
    EXPECT_TRUE(c.encrypt(0, {}).empty());
}

TEST(BlockCipher, LargeBlockSpansManyPadChunks)
{
    BlockCipher c(toBytes("k"));
    Bytes plain(10000);
    for (std::size_t i = 0; i < plain.size(); i++)
        plain[i] = static_cast<std::uint8_t>(i * 31);
    Bytes cipher = c.encrypt(1, plain);
    EXPECT_EQ(c.decrypt(1, cipher), plain);
    // Ciphertext must not leak long plaintext runs: compare a window.
    std::size_t same = 0;
    for (std::size_t i = 0; i < plain.size(); i++) {
        if (plain[i] == cipher[i])
            same++;
    }
    EXPECT_LT(same, plain.size() / 16); // ~1/256 expected
}

TEST(BlockCipher, EmptyKeyRejected)
{
    EXPECT_THROW(BlockCipher(Bytes{}), std::invalid_argument);
}

TEST(BlockCipher, KnownAnswerCiphertexts)
{
    // Known-answer vectors recorded from the reference keystream (a
    // fresh SHA1(key || i || j/20) per 20-byte pad).  Keys longer than
    // 55 and 64 bytes move the SHA-1 block boundary inside the
    // key || index prefix; plaintext lengths straddle the 20-byte pad;
    // indices exercise every byte of the big-endian position.  One
    // digest per key length folds all 18 ciphertexts for that key.
    const std::vector<std::pair<std::size_t, std::string>> expected = {
        {1, "4db7ae4467565c9d61fe086b5bff9f88f24344ec"},
        {20, "f29fca31add5049a21e8bd7815950d97d1a74ef3"},
        {55, "51c5887098ac0f8eb098b598f4b67ee5eb6e9b63"},
        {56, "002799c329101cc6ccc087fafebba8c454ad118f"},
        {64, "249ff700253cc8e8ff163effecb23a90c03c66c2"},
        {100, "14c89da090be373ccc8b9a168f8326fa0e1ed7bf"},
    };
    for (const auto &[key_len, hex] : expected) {
        Bytes key(key_len);
        for (std::size_t i = 0; i < key_len; i++)
            key[i] = static_cast<std::uint8_t>(i * 13 + key_len + 1);
        BlockCipher c(key);
        Sha1 fold;
        for (std::size_t len : {0u, 1u, 19u, 20u, 21u, 4099u}) {
            Bytes plain(len);
            for (std::size_t i = 0; i < len; i++)
                plain[i] = static_cast<std::uint8_t>(i * 31 + 5);
            for (std::uint64_t idx :
                 {std::uint64_t{0}, std::uint64_t{1} << 20,
                  std::uint64_t{1} << 63}) {
                Bytes ct = c.encrypt(idx, plain);
                ASSERT_EQ(ct.size(), len);
                EXPECT_EQ(c.decrypt(idx, ct), plain);
                fold.update(ct);
            }
        }
        EXPECT_EQ(digestToHex(fold.finish()), hex)
            << "key length " << key_len;
    }
}

} // namespace
} // namespace oceanstore
