/** @file SHA-1 correctness against FIPS 180-1 test vectors. */

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "crypto/sha1.h"

namespace oceanstore {
namespace {

TEST(Sha1, Fips180Abc)
{
    // FIPS 180-1 Appendix A.
    EXPECT_EQ(digestToHex(Sha1::hash("abc")),
              "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, Fips180TwoBlockMessage)
{
    // FIPS 180-1 Appendix B.
    EXPECT_EQ(
        digestToHex(Sha1::hash(
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
        "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, EmptyMessage)
{
    EXPECT_EQ(digestToHex(Sha1::hash("")),
              "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, MillionAs)
{
    // FIPS 180-1 Appendix C: one million repetitions of 'a'.
    Sha1 h;
    std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; i++)
        h.update(chunk);
    EXPECT_EQ(digestToHex(h.finish()),
              "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalMatchesOneShot)
{
    std::string msg = "the quick brown fox jumps over the lazy dog";
    for (std::size_t split = 0; split <= msg.size(); split += 7) {
        Sha1 h;
        h.update(std::string_view(msg).substr(0, split));
        h.update(std::string_view(msg).substr(split));
        EXPECT_EQ(h.finish(), Sha1::hash(msg)) << "split at " << split;
    }
}

TEST(Sha1, KnownQuickBrownFox)
{
    EXPECT_EQ(digestToHex(Sha1::hash(
                  "The quick brown fox jumps over the lazy dog")),
              "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
}

TEST(Sha1, BoundarySizesNearBlockEdge)
{
    // Lengths around the 55/56/64-byte padding edges must all be
    // distinct and stable.
    std::set<std::string> seen;
    for (std::size_t len = 50; len <= 70; len++) {
        std::string msg(len, 'x');
        auto hex = digestToHex(Sha1::hash(msg));
        EXPECT_TRUE(seen.insert(hex).second) << "collision at " << len;
        // Re-hash must agree.
        EXPECT_EQ(digestToHex(Sha1::hash(msg)), hex);
    }
}

TEST(Sha1, BytesOverloadMatchesString)
{
    std::string msg = "payload";
    EXPECT_EQ(Sha1::hash(msg), Sha1::hash(toBytes(msg)));
}

TEST(Sha1, DigestToBytesLength)
{
    EXPECT_EQ(digestToBytes(Sha1::hash("x")).size(), 20u);
}

/** Message of @p len bytes whose content also depends on @p len. */
Bytes
katMessage(std::size_t len)
{
    Bytes msg(len);
    for (std::size_t i = 0; i < len; i++)
        msg[i] = static_cast<std::uint8_t>(i * 7 + len);
    return msg;
}

TEST(Sha1, KnownAnswerEveryLengthTo200)
{
    // Known-answer vector recorded from the straightforward reference
    // compression (w[80] schedule, byte-at-a-time padding): the digest
    // of every length 0..200, folded into one SHA-1.  Every padding
    // edge (55, 56, 63, 64, 119, 120, 127, 128, ...) is covered.
    Sha1 fold;
    for (std::size_t len = 0; len <= 200; len++) {
        Sha1Digest d = Sha1::hash(katMessage(len));
        fold.update(d.data(), d.size());
    }
    EXPECT_EQ(digestToHex(fold.finish()),
              "d0de06f4c5cb01efe13d538b17bbc0bd8144a1c2");
}

TEST(Sha1, PortableCompressionMatchesSha1)
{
    // Sha1 runs on the SHA extensions where the CPU has them; hash
    // whole-block messages by hand through the portable compression
    // (message blocks, then the padding block) and compare.
    for (std::size_t blocks : {0u, 1u, 2u, 7u}) {
        Bytes msg = katMessage(64 * blocks);
        std::uint32_t h[5] = {0x67452301u, 0xefcdab89u, 0x98badcfeu,
                              0x10325476u, 0xc3d2e1f0u};
        sha1CompressPortable(h, msg.data(), blocks);
        std::uint8_t pad[64] = {0x80};
        std::uint64_t bits = msg.size() * 8;
        for (int i = 0; i < 8; i++)
            pad[56 + i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
        sha1CompressPortable(h, pad, 1);
        Sha1Digest d;
        for (int i = 0; i < 20; i++)
            d[i] = static_cast<std::uint8_t>(h[i / 4] >> (24 - 8 * (i % 4)));
        EXPECT_EQ(d, Sha1::hash(msg)) << blocks << " blocks";
    }
}

TEST(Sha1, ChunkedUpdatesMatchOneShot)
{
    // Odd chunk sizes straddle the 64-byte block boundary at every
    // offset, so buffered and direct block processing must agree.
    Bytes msg = katMessage(200);
    for (std::size_t chunk : {1u, 3u, 13u, 55u, 63u, 64u, 65u}) {
        Sha1 h;
        for (std::size_t off = 0; off < msg.size(); off += chunk) {
            std::size_t n = std::min(chunk, msg.size() - off);
            h.update(msg.data() + off, n);
        }
        EXPECT_EQ(h.finish(), Sha1::hash(msg)) << "chunk " << chunk;
    }
}

} // namespace
} // namespace oceanstore
