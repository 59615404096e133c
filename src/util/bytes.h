/**
 * @file
 * Byte-buffer utilities used throughout OceanStore.
 *
 * All wire formats in the library are built on top of the Bytes type:
 * a plain contiguous buffer of octets.  Bulk payloads that many holders
 * keep (ciphertext blocks, search-index tokens, PBFT request bodies,
 * archival fragments) travel as a Blob instead: immutable and
 * reference-counted, so a copy is a pointer copy (DESIGN.md section
 * 18).  This header provides both types, hex conversion and a small
 * serialization reader/writer pair used by the protocol messages,
 * update records and archival fragments.
 */

#ifndef OCEANSTORE_UTIL_BYTES_H
#define OCEANSTORE_UTIL_BYTES_H

#include <atomic>
#include <cstdint>
#include <cstring>
#include <new>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace oceanstore {

/** A contiguous, owned buffer of octets. */
using Bytes = std::vector<std::uint8_t>;

/** Read-only view of contiguous octets (Bytes, Blob, arrays). */
using ByteSpan = std::span<const std::uint8_t>;

/**
 * An immutable, reference-counted byte string (DESIGN.md section 18).
 *
 * The atomic count, the length and the bytes share one allocation.  A
 * Blob is filled once when it is created (from a copy, or by filled())
 * and never written again, so every copy aliases the same bytes and
 * copies may be made and dropped on any thread.  A zero-length Blob
 * owns no allocation.
 */
class Blob
{
  public:
    using value_type = std::uint8_t;
    using const_iterator = const std::uint8_t *;
    using iterator = const_iterator;

    /** The empty blob. */
    Blob() noexcept = default;

    /** Copy @p n bytes at @p p into a new buffer. */
    Blob(const std::uint8_t *p, std::size_t n)
        : Blob(filled(n, [&](std::uint8_t *out) {
              std::memcpy(out, p, n);
          }))
    {
    }

    /** Copy @p b into a new buffer (implicit: a Bytes literal builds
     *  an action or fragment directly). */
    Blob(const Bytes &b) : Blob(b.data(), b.size()) {}

    /**
     * A new @p n-byte blob whose bytes @p fill writes through the
     * std::uint8_t * it is given, before anything else can see them.
     */
    template <typename Fill>
    static Blob
    filled(std::size_t n, Fill &&fill)
    {
        Blob b;
        if (n == 0)
            return b;
        void *mem = ::operator new(sizeof(Header) + n);
        b.rep_ = new (mem) Header{{1}, n};
        fill(reinterpret_cast<std::uint8_t *>(b.rep_ + 1));
        return b;
    }

    Blob(const Blob &o) noexcept : rep_(o.rep_)
    {
        if (rep_)
            rep_->refs.fetch_add(1, std::memory_order_relaxed);
    }

    Blob(Blob &&o) noexcept : rep_(o.rep_) { o.rep_ = nullptr; }

    Blob &
    operator=(Blob o) noexcept
    {
        std::swap(rep_, o.rep_);
        return *this;
    }

    ~Blob()
    {
        if (rep_ &&
            rep_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            rep_->~Header();
            ::operator delete(rep_);
        }
    }

    /** First byte; null for a zero-length blob. */
    const std::uint8_t *
    data() const noexcept
    {
        return rep_ ? reinterpret_cast<const std::uint8_t *>(rep_ + 1)
                    : nullptr;
    }

    std::size_t size() const noexcept { return rep_ ? rep_->size : 0; }
    bool empty() const noexcept { return rep_ == nullptr; }
    const std::uint8_t *begin() const noexcept { return data(); }
    const std::uint8_t *end() const noexcept { return data() + size(); }
    std::uint8_t operator[](std::size_t i) const { return data()[i]; }

    /** Same bytes (not necessarily the same buffer). */
    friend bool
    operator==(const Blob &a, const Blob &b) noexcept
    {
        return a.rep_ == b.rep_ || equal(a, b.data(), b.size());
    }

    friend bool
    operator==(const Blob &a, const Bytes &b) noexcept
    {
        return equal(a, b.data(), b.size());
    }

  private:
    struct Header
    {
        std::atomic<std::size_t> refs;
        std::size_t size;
    };

    static bool
    equal(const Blob &a, const std::uint8_t *p, std::size_t n) noexcept
    {
        return a.size() == n &&
               (n == 0 || std::memcmp(a.data(), p, n) == 0);
    }

    Header *rep_ = nullptr;
};

/**
 * A copy of @p b with byte @p pos XORed by @p mask.  Fault injectors
 * corrupt one holder's copy this way: every other holder of @p b keeps
 * the original bytes.
 */
Blob withByteFlipped(const Blob &b, std::size_t pos, std::uint8_t mask);

/** Convert a string (its raw characters) to Bytes. */
Bytes toBytes(std::string_view s);

/** Convert bytes back into a std::string (raw characters). */
std::string toString(ByteSpan b);

/** Lower-case hexadecimal encoding of a byte buffer. */
std::string hexEncode(const Bytes &b);

/** Write @p b as 2 * b.size() lower-case hex characters at @p out. */
void hexEncodeTo(ByteSpan b, char *out);

/**
 * Decode a lower- or upper-case hexadecimal string.  nullopt on odd
 * length or a non-hex character.
 */
std::optional<Bytes> hexDecode(std::string_view hex);

/**
 * Decode @p hex (even length, lower or upper case) into the
 * hex.size() / 2 bytes at @p out.  False on a non-hex character;
 * @p out may then be partly written.
 */
bool hexDecodeTo(std::string_view hex, std::uint8_t *out);

/** Concatenate two byte buffers. */
Bytes operator+(const Bytes &a, const Bytes &b);

/**
 * Little sequential writer for fixed-width integers and length-prefixed
 * blobs.  Used by every wire format in the library so that byte
 * accounting (Figure 6 of the paper) reflects realistic message sizes.
 */
class ByteWriter
{
  public:
    ByteWriter() = default;

    /** Append a single octet. */
    void putU8(std::uint8_t v) { buf_.push_back(v); }

    /** Append a 16-bit unsigned integer, big-endian. */
    void putU16(std::uint16_t v);

    /** Append a 32-bit unsigned integer, big-endian. */
    void putU32(std::uint32_t v);

    /** Append a 64-bit unsigned integer, big-endian. */
    void putU64(std::uint64_t v);

    /** Append raw bytes with no length prefix. */
    void putRaw(ByteSpan b);

    /** Append raw bytes from a pointer with no length prefix. */
    void putRaw(const std::uint8_t *p, std::size_t n);

    /** Append a 32-bit length prefix followed by the blob itself. */
    void putBlob(ByteSpan b);

    /** Append a 32-bit length prefix followed by the string bytes. */
    void putString(std::string_view s);

    /** Number of bytes written so far. */
    std::size_t size() const { return buf_.size(); }

    /** Move the accumulated buffer out of the writer. */
    Bytes take() { return std::move(buf_); }

    /** Read-only view of the accumulated buffer. */
    const Bytes &buffer() const { return buf_; }

  private:
    Bytes buf_;
};

/**
 * Sequential reader matching ByteWriter.  It never throws: a read past
 * the end marks the reader failed and moves it to the end, so every
 * later read fails too.  A failed fixed-size read returns zero and a
 * failed sized or length-prefixed read returns empty, so it never
 * allocates more than remaining().  A decoder reads every field, then
 * checks ok() once, and exhausted() where its encoding must fill the
 * input exactly (DESIGN.md section 8).
 */
class ByteReader
{
  public:
    explicit ByteReader(ByteSpan b) : buf_(b), pos_(0) {}

    /** Read a single octet. */
    std::uint8_t getU8();

    /** Read a big-endian 16-bit unsigned integer. */
    std::uint16_t getU16();

    /** Read a big-endian 32-bit unsigned integer. */
    std::uint32_t getU32();

    /** Read a big-endian 64-bit unsigned integer. */
    std::uint64_t getU64();

    /** Read exactly @p n raw bytes. */
    Bytes getRaw(std::size_t n);

    /** Read exactly @p n raw bytes into @p out (zeros on failure). */
    void getRaw(std::uint8_t *out, std::size_t n);

    /** Read a 32-bit length prefix followed by that many bytes. */
    Bytes getBlob();

    /** getBlob(), built straight from the input into a Blob. */
    Blob getSharedBlob();

    /** Read a length-prefixed string. */
    std::string getString();

    /**
     * Check a count read off the wire before it sizes anything: true
     * when @p count elements of at least @p min_bytes encoded bytes
     * each fit in what is left, otherwise fail().
     */
    bool backs(std::uint32_t count, std::size_t min_bytes);

    /** Mark the input malformed (an unknown tag, say): the reader
     *  fails as if a read had run past the end. */
    void fail();

    /** False once any read ran past the end or fail() was called. */
    bool ok() const { return ok_; }

    /** Bytes remaining in the buffer. */
    std::size_t remaining() const { return buf_.size() - pos_; }

    /** True when every byte has been consumed. */
    bool exhausted() const { return pos_ == buf_.size(); }

  private:
    /** True when @p n more bytes are there to read; otherwise fail(). */
    bool take(std::size_t n);

    ByteSpan buf_;
    std::size_t pos_;
    bool ok_ = true;
};

} // namespace oceanstore

#endif // OCEANSTORE_UTIL_BYTES_H
