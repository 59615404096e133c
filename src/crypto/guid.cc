#include "crypto/guid.h"

#include <charconv>
#include <stdexcept>

#include "util/check.h"

namespace oceanstore {

Guid::Guid(const Sha1Digest &d)
{
    std::copy(d.begin(), d.end(), bytes_.begin());
}

Guid
Guid::hashOf(ByteSpan data)
{
    return Guid(Sha1::hash(data));
}

Guid
Guid::hashOf(std::string_view s)
{
    return Guid(Sha1::hash(s));
}

Guid
Guid::forObject(const Bytes &owner_pub_key, std::string_view name)
{
    Sha1 h;
    h.update(owner_pub_key);
    h.update(std::string_view("\x00", 1)); // domain separator
    h.update(name);
    return Guid(h.finish());
}

Guid
Guid::forServer(const Bytes &server_pub_key)
{
    return hashOf(server_pub_key);
}

Guid
Guid::forFragment(const Bytes &fragment_data)
{
    return hashOf(fragment_data);
}

Guid
Guid::random(Rng &rng)
{
    Guid g;
    for (std::size_t i = 0; i < numBytes; i += 8) {
        std::uint64_t v = rng.next();
        for (std::size_t j = 0; j < 8 && i + j < numBytes; j++)
            g.bytes_[i + j] = static_cast<std::uint8_t>(v >> (8 * j));
    }
    return g;
}

std::optional<Guid>
Guid::fromHex(std::string_view hex)
{
    Guid g;
    if (hex.size() != numDigits || !hexDecodeTo(hex, g.bytes_.data()))
        return std::nullopt;
    return g;
}

Guid
Guid::fromBytes(const Bytes &raw)
{
    if (raw.size() != numBytes)
        throw std::invalid_argument("Guid::fromBytes: need 20 bytes");
    Guid g;
    std::copy(raw.begin(), raw.end(), g.bytes_.begin());
    return g;
}

Guid
Guid::withSalt(std::uint32_t salt) const
{
    Sha1 h;
    h.update(bytes_.data(), bytes_.size());
    std::uint8_t s[4] = {
        static_cast<std::uint8_t>(salt >> 24),
        static_cast<std::uint8_t>(salt >> 16),
        static_cast<std::uint8_t>(salt >> 8),
        static_cast<std::uint8_t>(salt),
    };
    h.update(s, 4);
    return Guid(h.finish());
}

unsigned
Guid::digit(std::size_t i) const
{
    OS_DCHECK(i < numDigits, "Guid::digit(", i, ")");
    // Digit 0 is the least significant nibble: low nibble of the last
    // byte.  Digit 1 is the high nibble of the last byte, and so on.
    std::size_t byte_index = numBytes - 1 - i / 2;
    std::uint8_t b = bytes_[byte_index];
    return (i % 2 == 0) ? (b & 0xf) : (b >> 4);
}

Guid
Guid::withDigit(std::size_t i, unsigned value) const
{
    OS_DCHECK(i < numDigits, "Guid::withDigit(", i, ")");
    OS_DCHECK(value < digitBase, "Guid::withDigit: value ", value);
    Guid g = *this;
    std::size_t byte_index = numBytes - 1 - i / 2;
    std::uint8_t b = g.bytes_[byte_index];
    if (i % 2 == 0)
        b = static_cast<std::uint8_t>((b & 0xf0) | (value & 0xf));
    else
        b = static_cast<std::uint8_t>((b & 0x0f) | ((value & 0xf) << 4));
    g.bytes_[byte_index] = b;
    return g;
}

std::size_t
Guid::matchingSuffix(const Guid &other) const
{
    std::size_t n = 0;
    while (n < numDigits && digit(n) == other.digit(n))
        n++;
    return n;
}

std::string
Guid::hex() const
{
    std::string out(numDigits, '\0');
    hexEncodeTo(bytes_, out.data());
    return out;
}

std::string
Guid::shortHex() const
{
    return hex().substr(0, 8);
}

bool
Guid::valid() const
{
    for (auto b : bytes_) {
        if (b != 0)
            return true;
    }
    return false;
}

std::uint64_t
Guid::hash64() const
{
    // The GUID is already a uniform hash; fold the first 8 bytes.
    std::uint64_t v = 0;
    for (int i = 0; i < 8; i++)
        v = (v << 8) | bytes_[i];
    return v;
}

std::string
guidKey(std::string_view prefix, const Guid &g, std::uint32_t n)
{
    // One buffer: prefix, 40 hex digits, '/', up to 10 decimal digits.
    char num[10];
    auto [numEnd, ec] = std::to_chars(num, num + sizeof num, n);
    OS_DCHECK(ec == std::errc(), "guidKey: index ", n);
    const auto numLen = static_cast<std::size_t>(numEnd - num);
    std::string key(prefix.size() + Guid::numDigits + 1 + numLen, '\0');
    char *out = std::copy(prefix.begin(), prefix.end(), key.data());
    hexEncodeTo(g.bytes(), out);
    out += Guid::numDigits;
    *out++ = '/';
    std::copy(num, numEnd, out);
    return key;
}

std::optional<std::pair<Guid, std::uint32_t>>
parseGuidKey(std::string_view key, std::string_view prefix)
{
    const std::size_t indexAt = prefix.size() + Guid::numDigits + 1;
    if (key.size() <= indexAt || !key.starts_with(prefix) ||
        key[indexAt - 1] != '/')
        return std::nullopt;
    std::optional<Guid> g =
        Guid::fromHex(key.substr(prefix.size(), Guid::numDigits));
    std::uint32_t index = 0;
    const char *end = key.data() + key.size();
    auto [ptr, ec] = std::from_chars(key.data() + indexAt, end, index);
    if (!g || ec != std::errc() || ptr != end)
        return std::nullopt;
    return std::make_pair(*g, index);
}

} // namespace oceanstore
