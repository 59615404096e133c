/** @file GUID semantics: digits, suffixes, salts, self-certification. */

#include <set>

#include <gtest/gtest.h>

#include "crypto/guid.h"

namespace oceanstore {
namespace {

TEST(Guid, DefaultIsInvalid)
{
    Guid g;
    EXPECT_FALSE(g.valid());
    EXPECT_EQ(g.hex(), std::string(40, '0'));
}

TEST(Guid, HexRoundTrip)
{
    Rng rng(7);
    for (int i = 0; i < 20; i++) {
        Guid g = Guid::random(rng);
        EXPECT_EQ(Guid::fromHex(g.hex()), g);
    }
}

TEST(Guid, FromHexRejectsBadLength)
{
    EXPECT_FALSE(Guid::fromHex("abcd").has_value());
}

TEST(Guid, FromBytesRejectsBadLength)
{
    EXPECT_THROW(Guid::fromBytes(Bytes(19, 0)), std::invalid_argument);
}

TEST(Guid, DigitExtractionMatchesHex)
{
    // Digit 0 is the least significant nibble = last hex character.
    Guid g = *Guid::fromHex("0123456789abcdef0123456789abcdef01234567");
    EXPECT_EQ(g.digit(0), 0x7u);
    EXPECT_EQ(g.digit(1), 0x6u);
    EXPECT_EQ(g.digit(2), 0x5u);
    EXPECT_EQ(g.digit(39), 0x0u);
}

TEST(Guid, WithDigitReplacesOnlyThatDigit)
{
    Guid g = *Guid::fromHex("0123456789abcdef0123456789abcdef01234567");
    Guid h = g.withDigit(0, 0xa);
    EXPECT_EQ(h.digit(0), 0xau);
    for (std::size_t i = 1; i < Guid::numDigits; i++)
        EXPECT_EQ(h.digit(i), g.digit(i)) << "digit " << i;
}

TEST(Guid, MatchingSuffixBasics)
{
    Guid a = *Guid::fromHex("00000000000000000000000000000000000abc12");
    Guid b = *Guid::fromHex("00000000000000000000000000000000000def12");
    EXPECT_EQ(a.matchingSuffix(b), 2u); // "12" matches
    EXPECT_EQ(a.matchingSuffix(a), Guid::numDigits);
}

TEST(Guid, SelfCertifyingNames)
{
    Bytes key1 = toBytes("owner-key-1");
    Bytes key2 = toBytes("owner-key-2");
    Guid g1 = Guid::forObject(key1, "inbox");
    Guid g2 = Guid::forObject(key1, "inbox");
    EXPECT_EQ(g1, g2); // deterministic
    EXPECT_NE(Guid::forObject(key2, "inbox"), g1); // key matters
    EXPECT_NE(Guid::forObject(key1, "outbox"), g1); // name matters
}

TEST(Guid, SaltingProducesDistinctRoots)
{
    Rng rng(11);
    Guid g = Guid::random(rng);
    Guid s0 = g.withSalt(0);
    Guid s1 = g.withSalt(1);
    EXPECT_NE(s0, g);
    EXPECT_NE(s0, s1);
    EXPECT_EQ(g.withSalt(0), s0); // deterministic
}

TEST(Guid, RandomGuidsAreDistinctAndDeterministic)
{
    Rng a(99), b(99);
    Guid g1 = Guid::random(a);
    Guid g2 = Guid::random(b);
    EXPECT_EQ(g1, g2); // same seed, same GUID
    EXPECT_NE(Guid::random(a), g1);
}

TEST(Guid, Hash64SpreadsValues)
{
    Rng rng(5);
    std::set<std::uint64_t> hashes;
    for (int i = 0; i < 200; i++)
        hashes.insert(Guid::random(rng).hash64());
    EXPECT_EQ(hashes.size(), 200u);
}

TEST(Guid, OrderingIsTotal)
{
    Rng rng(3);
    Guid a = Guid::random(rng);
    Guid b = Guid::random(rng);
    EXPECT_TRUE((a < b) || (b < a) || (a == b));
}

TEST(Guid, DigitValuesInRange)
{
    Rng rng(17);
    Guid g = Guid::random(rng);
    for (std::size_t i = 0; i < Guid::numDigits; i++)
        EXPECT_LT(g.digit(i), Guid::digitBase);
}

TEST(Guid, KeyFormatIsUnchanged)
{
    // The "frag/" and "ptr/" records on every disk use these bytes:
    // prefix, 40 lower-case hex digits, '/', the index in decimal.
    const Guid abc = Guid::hashOf(std::string_view("abc"));
    EXPECT_EQ(abc.hex(), "a9993e364706816aba3e25717850c26c9cd0d89d");
    EXPECT_EQ(guidKey("ptr/", abc, 7),
              "ptr/a9993e364706816aba3e25717850c26c9cd0d89d/7");
    EXPECT_EQ(guidKey("frag/", abc, 0),
              "frag/a9993e364706816aba3e25717850c26c9cd0d89d/0");
    EXPECT_EQ(guidKey("frag/", Guid(), 4294967295u),
              "frag/0000000000000000000000000000000000000000/4294967295");
    EXPECT_EQ(guidKey("", abc, 1234567),
              "a9993e364706816aba3e25717850c26c9cd0d89d/1234567");

    Rng rng(33);
    for (std::uint32_t n : {0u, 9u, 10u, 65535u, 4294967295u}) {
        Guid g = Guid::random(rng);
        std::string key = guidKey("ptr/", g, n);
        EXPECT_EQ(key, "ptr/" + g.hex() + "/" + std::to_string(n));
        auto parsed = parseGuidKey(key, "ptr/");
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(parsed->first, g);
        EXPECT_EQ(parsed->second, n);
        EXPECT_FALSE(parseGuidKey(key, "frag/").has_value());
    }

    // Upper-case digits parse to the same GUID; anything else is no
    // key at all.
    auto upper =
        parseGuidKey("ptr/A9993E364706816ABA3E25717850C26C9CD0D89D/7", "ptr/");
    ASSERT_TRUE(upper.has_value());
    EXPECT_EQ(upper->first, abc);
    for (const char *bad :
         {"ptr/a9993e364706816aba3e25717850c26c9cd0d89d/",
          "ptr/a9993e364706816aba3e25717850c26c9cd0d89d7",
          "ptr/a9993e364706816aba3e25717850c26c9cd0d89/7",
          "ptr/g9993e364706816aba3e25717850c26c9cd0d89d/7",
          "ptr/a9993e364706816aba3e25717850c26c9cd0d89d/7x",
          "ptr/a9993e364706816aba3e25717850c26c9cd0d89d/4294967296",
          "ptx/a9993e364706816aba3e25717850c26c9cd0d89d/7"})
        EXPECT_FALSE(parseGuidKey(bad, "ptr/").has_value()) << bad;
    EXPECT_EQ(Guid::fromHex("a9993e364706816aba3e25717850c26c9cd0d89d"),
              abc);
    EXPECT_FALSE(
        Guid::fromHex("a9993e364706816aba3e25717850c26c9cd0d8 d").has_value());
}

} // namespace
} // namespace oceanstore
