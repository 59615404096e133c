/** @file CRC-32 (IEEE, reflected) known answers for the log and wire
 *  checksum (util/crc32.h). */

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/crc32.h"

namespace oceanstore {
namespace {

/** A seeded xorshift buffer, independent of util/random.h so the
 *  vectors below never move with the library's generator. */
std::vector<std::uint8_t>
seededBuffer(std::size_t n)
{
    std::uint64_t s = 0x43524333ull;
    std::vector<std::uint8_t> buf(n);
    for (auto &b : buf) {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        b = static_cast<std::uint8_t>(s >> 24);
    }
    return buf;
}

TEST(Crc32, CheckValue)
{
    // The catalogue check value of CRC-32/ISO-HDLC.
    const std::string msg = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t *>(msg.data()),
                    msg.size()),
              0xcbf43926u);
}

TEST(Crc32, EmptyInput)
{
    const std::uint8_t byte = 0xa5;
    EXPECT_EQ(crc32(nullptr, 0), 0u);
    EXPECT_EQ(crc32(&byte, 0), 0u);
}

TEST(Crc32, KnownAnswerSeededBuffer)
{
    // Recorded from the byte-at-a-time table loop (and matching zlib's
    // crc32), at lengths either side of the 16- and 64-byte steps of a
    // folding kernel, a page and an odd multi-page length.
    const std::vector<std::pair<std::size_t, std::uint32_t>> expected = {
        {1, 0xdd0216b9u},    {15, 0x31477c45u},  {16, 0xd233a8f1u},
        {63, 0xb8885c1bu},   {64, 0xf0b87168u},  {65, 0x7a9588a9u},
        {127, 0x428be61bu},  {4096, 0xe7f1d014u},
        {16397, 0x82a41ac9u},
    };
    const std::vector<std::uint8_t> buf = seededBuffer(16397);
    for (const auto &[len, crc] : expected)
        EXPECT_EQ(crc32(buf.data(), len), crc) << "length " << len;
}

/** Bit-at-a-time definition of the checksum, the sweep's oracle. */
std::uint32_t
bitwiseCrc32(const std::uint8_t *data, std::size_t n)
{
    std::uint32_t crc = 0xffffffffu;
    for (std::size_t i = 0; i < n; i++) {
        crc ^= data[i];
        for (int k = 0; k < 8; k++)
            crc = (crc >> 1) ^ (0xedb88320u & (0u - (crc & 1u)));
    }
    return crc ^ 0xffffffffu;
}

TEST(Crc32, FastAndPortableMatchBitwiseEveryLengthAndAlignment)
{
    // Every length to 1024 covers each remainder of the 64-byte fold
    // and of the 16- and 8-byte steps; each of the 16 start offsets
    // misaligns the 16-byte loads differently.  Each input ends
    // exactly where its allocation does, so a load past the end is
    // caught under AddressSanitizer.
    constexpr std::size_t kMaxLen = 1024;
    const std::vector<std::uint8_t> src = seededBuffer(kMaxLen);
    for (std::size_t align = 0; align < 16; align++) {
        for (std::size_t len = 0; len <= kMaxLen; len++) {
            std::vector<std::uint8_t> buf(align + len);
            std::copy(src.begin(),
                      src.begin() + static_cast<std::ptrdiff_t>(len),
                      buf.begin() + static_cast<std::ptrdiff_t>(align));
            const std::uint8_t *in = buf.data() + align;
            const std::uint32_t want = bitwiseCrc32(in, len);
            ASSERT_EQ(crc32(in, len), want)
                << "length " << len << " offset " << align;
            ASSERT_EQ(crc32Portable(in, len), want)
                << "length " << len << " offset " << align;
        }
    }
}

} // namespace
} // namespace oceanstore
