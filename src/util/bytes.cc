#include "util/bytes.h"

#include <algorithm>

namespace oceanstore {

Blob
withByteFlipped(const Blob &b, std::size_t pos, std::uint8_t mask)
{
    if (pos >= b.size())
        throw std::out_of_range("withByteFlipped: position past the end");
    return Blob::filled(b.size(), [&](std::uint8_t *out) {
        std::memcpy(out, b.data(), b.size());
        out[pos] ^= mask;
    });
}

Bytes
toBytes(std::string_view s)
{
    return Bytes(s.begin(), s.end());
}

std::string
toString(ByteSpan b)
{
    return std::string(b.begin(), b.end());
}

std::string
hexEncode(const Bytes &b)
{
    std::string out(b.size() * 2, '\0');
    hexEncodeTo(b, out.data());
    return out;
}

void
hexEncodeTo(ByteSpan b, char *out)
{
    static const char digits[] = "0123456789abcdef";
    for (std::uint8_t c : b) {
        *out++ = digits[c >> 4];
        *out++ = digits[c & 0xf];
    }
}

namespace {

/** Value of hex digit @p c, or -1 when it is none. */
int
hexNibble(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

} // namespace

std::optional<Bytes>
hexDecode(std::string_view hex)
{
    if (hex.size() % 2 != 0)
        return std::nullopt;
    Bytes out(hex.size() / 2);
    if (!hexDecodeTo(hex, out.data()))
        return std::nullopt;
    return out;
}

bool
hexDecodeTo(std::string_view hex, std::uint8_t *out)
{
    for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
        int hi = hexNibble(hex[i]);
        int lo = hexNibble(hex[i + 1]);
        if (hi < 0 || lo < 0)
            return false;
        *out++ = static_cast<std::uint8_t>((hi << 4) | lo);
    }
    return true;
}

Bytes
operator+(const Bytes &a, const Bytes &b)
{
    Bytes out;
    out.reserve(a.size() + b.size());
    out.insert(out.end(), a.begin(), a.end());
    out.insert(out.end(), b.begin(), b.end());
    return out;
}

void
ByteWriter::putU16(std::uint16_t v)
{
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
}

void
ByteWriter::putU32(std::uint32_t v)
{
    for (int shift = 24; shift >= 0; shift -= 8)
        buf_.push_back(static_cast<std::uint8_t>(v >> shift));
}

void
ByteWriter::putU64(std::uint64_t v)
{
    for (int shift = 56; shift >= 0; shift -= 8)
        buf_.push_back(static_cast<std::uint8_t>(v >> shift));
}

void
ByteWriter::putRaw(ByteSpan b)
{
    buf_.insert(buf_.end(), b.begin(), b.end());
}

void
ByteWriter::putRaw(const std::uint8_t *p, std::size_t n)
{
    buf_.insert(buf_.end(), p, p + n);
}

void
ByteWriter::putBlob(ByteSpan b)
{
    putU32(static_cast<std::uint32_t>(b.size()));
    putRaw(b);
}

void
ByteWriter::putString(std::string_view s)
{
    putU32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
}

bool
ByteReader::take(std::size_t n)
{
    if (remaining() >= n)
        return true;
    fail();
    return false;
}

bool
ByteReader::backs(std::uint32_t count, std::size_t min_bytes)
{
    if (std::uint64_t{count} * min_bytes <= remaining())
        return true;
    fail();
    return false;
}

void
ByteReader::fail()
{
    ok_ = false;
    pos_ = buf_.size();
}

std::uint8_t
ByteReader::getU8()
{
    if (!take(1))
        return 0;
    return buf_[pos_++];
}

std::uint16_t
ByteReader::getU16()
{
    if (!take(2))
        return 0;
    std::uint16_t v = (static_cast<std::uint16_t>(buf_[pos_]) << 8) |
                      buf_[pos_ + 1];
    pos_ += 2;
    return v;
}

std::uint32_t
ByteReader::getU32()
{
    if (!take(4))
        return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; i++)
        v = (v << 8) | buf_[pos_ + i];
    pos_ += 4;
    return v;
}

std::uint64_t
ByteReader::getU64()
{
    if (!take(8))
        return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; i++)
        v = (v << 8) | buf_[pos_ + i];
    pos_ += 8;
    return v;
}

Bytes
ByteReader::getRaw(std::size_t n)
{
    if (!take(n))
        return {};
    Bytes out(buf_.begin() + pos_, buf_.begin() + pos_ + n);
    pos_ += n;
    return out;
}

void
ByteReader::getRaw(std::uint8_t *out, std::size_t n)
{
    if (!take(n)) {
        std::fill_n(out, n, std::uint8_t{0});
        return;
    }
    if (n > 0)
        std::memcpy(out, buf_.data() + pos_, n);
    pos_ += n;
}

Bytes
ByteReader::getBlob()
{
    std::uint32_t n = getU32();
    return getRaw(n);
}

Blob
ByteReader::getSharedBlob()
{
    std::uint32_t n = getU32();
    if (!take(n))
        return {};
    Blob out(buf_.data() + pos_, n);
    pos_ += n;
    return out;
}

std::string
ByteReader::getString()
{
    Bytes b = getBlob();
    return toString(b);
}

} // namespace oceanstore
