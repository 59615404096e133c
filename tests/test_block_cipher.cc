/** @file Position-dependent block cipher tests (Section 4.4.2). */

#include <set>
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

/** SHA1(key || i || c): pad c of block i, by definition. */
Sha1Digest
referencePad(const Bytes &key, std::uint64_t index, std::uint64_t chunk)
{
    std::uint8_t be[16];
    for (int k = 0; k < 8; k++) {
        be[k] = static_cast<std::uint8_t>(index >> (56 - 8 * k));
        be[8 + k] = static_cast<std::uint8_t>(chunk >> (56 - 8 * k));
    }
    Sha1 h;
    h.update(key);
    h.update(be, sizeof(be));
    return h.finish();
}

TEST(BlockCipher, MatchesReferenceKeystream)
{
    // Every key length 1..130 puts the counter slot at every offset
    // mod 4, in a one- and a two-block template, behind a prefix of one
    // or two whole blocks.  Plaintext lengths straddle the 20 * {4, 8,
    // 16}-byte strides of each kernel width.  Each input ends where its
    // allocation ends, so ASan sees a read past it.
    const std::uint64_t indices[] = {0,
                                     1,
                                     0xffffffffull,
                                     0x100000000ull,
                                     std::uint64_t{1} << 63,
                                     ~std::uint64_t{0}};
    constexpr std::size_t kLong = 16 << 10;
    std::vector<std::size_t> edges = {kLong};
    for (std::size_t stride : {80u, 160u, 320u}) {
        for (std::size_t k = 1; k <= 3; k++) {
            for (std::size_t len : {k * stride - 1, k * stride,
                                    k * stride + 1})
                edges.push_back(len);
        }
    }
    Bytes plain(kLong);
    for (std::size_t i = 0; i < plain.size(); i++)
        plain[i] = static_cast<std::uint8_t>(i * 167 + (i >> 7));

    std::set<unsigned> lacking;
    for (std::size_t key_len = 1; key_len <= 130; key_len++) {
        Bytes key(key_len);
        for (std::size_t i = 0; i < key_len; i++)
            key[i] = static_cast<std::uint8_t>(i * 7 + key_len);
        const BlockCipher c(key);
        for (std::size_t ix = 0; ix < std::size(indices); ix++) {
            const std::uint64_t index = indices[ix];
            Bytes expect(kLong);
            for (std::size_t off = 0; off < kLong; off += 20) {
                const Sha1Digest pad = referencePad(key, index, off / 20);
                for (std::size_t j = 0; j < 20 && off + j < kLong; j++)
                    expect[off + j] = plain[off + j] ^ pad[j];
            }
            // Every length 0..700 for one index per key length, the
            // stride edges and 16 KiB for all of them.
            std::vector<std::size_t> lens = edges;
            if (ix == key_len % std::size(indices)) {
                for (std::size_t len = 0; len <= 700; len++)
                    lens.push_back(len);
            }
            for (std::size_t len : lens) {
                const Bytes in(plain.begin(), plain.begin() + len);
                const Bytes want(expect.begin(), expect.begin() + len);
                ASSERT_EQ(c.encrypt(index, in), want)
                    << "key " << key_len << " index " << index << " len "
                    << len;
                Bytes appended = {0xee};
                c.decryptAppend(index, want.data(), len, appended);
                ASSERT_EQ(Bytes(appended.begin() + 1, appended.end()), in);
                ASSERT_EQ(appended[0], 0xee);

                Bytes out(len);
                cipherXorPortable(key, index, in.data(), len, out.data());
                ASSERT_EQ(out, want) << "portable, key " << key_len
                                     << " len " << len;
                for (unsigned lanes : {8u, 16u}) {
                    Bytes wide(len);
                    if (!cipherXorLanes(lanes, key, index, in.data(), len,
                                        wide.data())) {
                        lacking.insert(lanes);
                        continue;
                    }
                    ASSERT_EQ(wide, want) << lanes << " lanes, key "
                                          << key_len << " len " << len;
                }
            }
        }
    }
    Bytes none(1);
    for (unsigned lanes : {3u, 32u})
        EXPECT_FALSE(cipherXorLanes(lanes, toBytes("k"), 0, none.data(), 1,
                                    none.data()));
    if (!lacking.empty()) {
        std::string widths;
        for (unsigned lanes : lacking)
            widths += " " + std::to_string(lanes);
        GTEST_SKIP() << "unchecked: this CPU lacks lane widths" << widths;
    }
}

} // namespace
} // namespace oceanstore
