/** @file Unit tests for byte-buffer utilities. */

#include <gtest/gtest.h>

#include <thread>

#include "util/bytes.h"

namespace oceanstore {
namespace {

TEST(Bytes, StringRoundTrip)
{
    std::string s = "hello oceanstore";
    EXPECT_EQ(toString(toBytes(s)), s);
}

TEST(Bytes, HexEncodeKnownValues)
{
    EXPECT_EQ(hexEncode({}), "");
    EXPECT_EQ(hexEncode({0x00}), "00");
    EXPECT_EQ(hexEncode({0xde, 0xad, 0xbe, 0xef}), "deadbeef");
    EXPECT_EQ(hexEncode({0x0f, 0xf0}), "0ff0");
}

TEST(Bytes, HexDecodeRoundTrip)
{
    Bytes b = {0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef};
    EXPECT_EQ(hexDecode(hexEncode(b)), b);
    EXPECT_EQ(hexDecode("DEADBEEF"), (Bytes{0xde, 0xad, 0xbe, 0xef}));
}

TEST(Bytes, HexDecodeRejectsBadInput)
{
    EXPECT_FALSE(hexDecode("abc").has_value());
    EXPECT_FALSE(hexDecode("zz").has_value());
}

TEST(Bytes, Concatenation)
{
    Bytes a = {1, 2};
    Bytes b = {3};
    EXPECT_EQ(a + b, (Bytes{1, 2, 3}));
    EXPECT_EQ(a + Bytes{}, a);
}

TEST(ByteWriter, IntegerRoundTrip)
{
    ByteWriter w;
    w.putU8(0xab);
    w.putU16(0x1234);
    w.putU32(0xdeadbeef);
    w.putU64(0x0123456789abcdefull);
    Bytes out = w.take();
    ASSERT_EQ(out.size(), 1u + 2 + 4 + 8);

    ByteReader r(out);
    EXPECT_EQ(r.getU8(), 0xab);
    EXPECT_EQ(r.getU16(), 0x1234);
    EXPECT_EQ(r.getU32(), 0xdeadbeefu);
    EXPECT_EQ(r.getU64(), 0x0123456789abcdefull);
    EXPECT_TRUE(r.exhausted());
}

TEST(ByteWriter, BigEndianLayout)
{
    ByteWriter w;
    w.putU32(0x01020304);
    Bytes out = w.take();
    EXPECT_EQ(out, (Bytes{0x01, 0x02, 0x03, 0x04}));
}

TEST(ByteWriter, BlobAndStringRoundTrip)
{
    ByteWriter w;
    w.putBlob(Bytes{9, 8, 7});
    w.putString("abc");
    Bytes out = w.take();

    ByteReader r(out);
    EXPECT_EQ(r.getBlob(), (Bytes{9, 8, 7}));
    EXPECT_EQ(r.getString(), "abc");
}

TEST(ByteWriter, EmptyBlob)
{
    ByteWriter w;
    w.putBlob(Bytes{});
    ByteReader r(w.buffer());
    EXPECT_TRUE(r.getBlob().empty());
    EXPECT_TRUE(r.exhausted());
}

TEST(ByteReader, FailsOnUnderflow)
{
    Bytes small = {1, 2};
    ByteReader r(small);
    EXPECT_EQ(r.getU16(), 0x0102u);
    EXPECT_TRUE(r.ok());
    // A short read returns zero, fails the reader and stays failed.
    EXPECT_EQ(r.getU8(), 0u);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.exhausted());

    ByteReader r2(small);
    EXPECT_EQ(r2.getU32(), 0u);
    EXPECT_FALSE(r2.ok());
    EXPECT_EQ(r2.remaining(), 0u);
    EXPECT_EQ(r2.getU8(), 0u);
    EXPECT_FALSE(r2.ok());
}

TEST(ByteReader, BlobLengthBeyondBufferFails)
{
    ByteWriter w;
    w.putU32(1000); // claims 1000 bytes follow
    w.putU8(1);
    ByteReader r(w.buffer());
    EXPECT_TRUE(r.getBlob().empty());
    EXPECT_FALSE(r.ok());

    ByteReader rs(w.buffer());
    EXPECT_TRUE(rs.getSharedBlob().empty());
    EXPECT_TRUE(rs.getString().empty());
    EXPECT_FALSE(rs.ok());
}

TEST(ByteReader, BacksChecksACountAgainstTheBytesLeft)
{
    Bytes ten(10, 0);
    ByteReader r(ten);
    EXPECT_TRUE(r.backs(2, 5));
    EXPECT_TRUE(r.backs(0, 1000));
    EXPECT_TRUE(r.ok());
    // 2^32 - 1 elements of 20 bytes: no 32-bit wrap lets it pass.
    EXPECT_FALSE(r.backs(0xffffffffu, 20));
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteWriter, RawPointerWrite)
{
    std::uint8_t data[3] = {5, 6, 7};
    ByteWriter w;
    w.putRaw(data, 3);
    EXPECT_EQ(w.buffer(), (Bytes{5, 6, 7}));
}

TEST(ByteReader, SharedBlobAndRawIntoBuffer)
{
    ByteWriter w;
    w.putBlob(Bytes{4, 5, 6});
    w.putRaw(Bytes{7, 8});
    w.putBlob(Blob(Bytes{9}));
    ByteReader r(w.buffer());
    Blob b = r.getSharedBlob();
    EXPECT_EQ(b, (Bytes{4, 5, 6}));
    std::uint8_t raw[2] = {};
    r.getRaw(raw, 2);
    EXPECT_EQ(raw[0], 7);
    EXPECT_EQ(raw[1], 8);
    EXPECT_EQ(r.getSharedBlob(), (Bytes{9}));
    EXPECT_TRUE(r.exhausted());
    raw[0] = 0xff;
    r.getRaw(raw, 1);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(raw[0], 0) << "a failed fixed-size read writes zeros";

    // A reader over a Blob reads the same bytes.
    Blob wire = w.buffer();
    ByteReader rb(wire);
    EXPECT_EQ(rb.getBlob(), (Bytes{4, 5, 6}));
}

TEST(Blob, CopiesAliasOneBuffer)
{
    Blob a(Bytes{1, 2, 3});
    Blob b = a;
    EXPECT_EQ(b.data(), a.data());
    Blob c;
    c = b;
    EXPECT_EQ(c.data(), a.data());
    Blob d = std::move(c);
    EXPECT_EQ(d.data(), a.data());
    EXPECT_EQ(d, (Bytes{1, 2, 3}));

    // Equal bytes from a second copy are equal, not aliased.
    Blob e(Bytes{1, 2, 3});
    EXPECT_NE(e.data(), a.data());
    EXPECT_EQ(e, a);
}

TEST(Blob, EqualityWithBytes)
{
    Blob a(Bytes{1, 2, 3});
    EXPECT_TRUE(a == (Bytes{1, 2, 3}));
    EXPECT_TRUE((Bytes{1, 2, 3}) == a);
    EXPECT_FALSE(a == (Bytes{1, 2}));
    EXPECT_FALSE(a == (Bytes{1, 2, 4}));
    EXPECT_FALSE(a == Blob(Bytes{1, 2, 3, 4}));
    EXPECT_EQ(a[2], 3);
    EXPECT_EQ(Bytes(a.begin(), a.end()), (Bytes{1, 2, 3}));
    EXPECT_EQ(toString(Blob(toBytes("text"))), "text");
}

TEST(Blob, EmptyAndZeroLength)
{
    Blob none;
    Blob zero(Bytes{});
    bool filled = false;
    Blob made = Blob::filled(0, [&](std::uint8_t *) { filled = true; });
    EXPECT_FALSE(filled);
    for (const Blob *b : {&none, &zero, &made}) {
        EXPECT_TRUE(b->empty());
        EXPECT_EQ(b->size(), 0u);
        EXPECT_EQ(b->begin(), b->end());
        EXPECT_EQ(*b, Bytes{});
        EXPECT_EQ(*b, none);
    }
    EXPECT_NE(Blob(Bytes{0}), none);
}

TEST(Blob, FilledOnceThenShared)
{
    Blob b = Blob::filled(4, [](std::uint8_t *out) {
        for (int i = 0; i < 4; i++)
            out[i] = static_cast<std::uint8_t>(10 + i);
    });
    EXPECT_EQ(b, (Bytes{10, 11, 12, 13}));

    Blob flipped = withByteFlipped(b, 2, 0xff);
    EXPECT_NE(flipped.data(), b.data());
    EXPECT_EQ(flipped, (Bytes{10, 11, 12 ^ 0xff, 13}));
    EXPECT_EQ(b, (Bytes{10, 11, 12, 13})); // the original is untouched
    EXPECT_THROW(withByteFlipped(b, 4, 1), std::out_of_range);
}

TEST(Blob, LastCopyFreesTheBuffer)
{
    // Every path that drops a reference: destruction, assignment over
    // a live blob, self-assignment and move-assignment.  A count that
    // misses one leaks the buffer (LeakSanitizer) or frees it early
    // (AddressSanitizer, on the reads below).
    Blob keep(Bytes(4096, 0x5a));
    {
        std::vector<Blob> copies(8, keep);
        Blob other(Bytes(64, 1));
        other = keep;
        const Blob &alias = other;
        other = alias; // self-assignment
        Blob moved = std::move(other);
        moved = Blob(Bytes(32, 2));
        copies.clear();
    }
    EXPECT_EQ(keep.size(), 4096u);
    EXPECT_EQ(keep[4095], 0x5a);
    Blob last = std::move(keep);
    EXPECT_EQ(last[0], 0x5a);
}

TEST(Blob, CopiesOnTwoThreads)
{
    // The count is atomic: two threads copying and dropping one buffer
    // race on nothing (ThreadSanitizer) and free it exactly once.
    Blob shared(Bytes(1024, 7));
    auto churn = [&shared] {
        std::uint64_t sum = 0;
        for (int i = 0; i < 20000; i++) {
            Blob copy = shared;
            sum += copy[static_cast<std::size_t>(i) % copy.size()];
        }
        return sum;
    };
    std::uint64_t a = 0, b = 0;
    std::thread t1([&] { a = churn(); });
    std::thread t2([&] { b = churn(); });
    t1.join();
    t2.join();
    EXPECT_EQ(a, 7u * 20000u);
    EXPECT_EQ(b, 7u * 20000u);
    EXPECT_EQ(shared, Bytes(1024, 7));
}

} // namespace
} // namespace oceanstore
