#include "runtime/framing.h"

#include "util/crc32.h"

namespace oceanstore {

Bytes
encodeFrame(const Message &msg)
{
    ByteWriter w;
    w.putU32(frameMagic);
    w.putU16(frameVersion);
    w.putU16(static_cast<std::uint16_t>(msg.type.size()));
    w.putRaw(reinterpret_cast<const std::uint8_t *>(msg.type.data()),
             msg.type.size());
    w.putU32(msg.src);
    w.putU64(msg.nonce);
    w.putRaw(msg.destGuid.bytes().data(), Guid::numBytes);
    w.putU32(static_cast<std::uint32_t>(msg.wireSize));
    const Bytes &head = w.buffer();
    std::uint32_t crc = crc32(head.data(), head.size());
    w.putU32(crc);
    return w.take();
}

std::optional<FrameHeader>
decodeFrame(const Bytes &frame)
{
    ByteReader r(frame);
    if (r.getU32() != frameMagic || r.getU16() != frameVersion)
        return std::nullopt;
    FrameHeader h;
    std::uint16_t type_len = r.getU16();
    Bytes type = r.getRaw(type_len);
    h.type.assign(type.begin(), type.end());
    h.src = r.getU32();
    h.nonce = r.getU64();
    Sha1Digest guid{};
    r.getRaw(guid.data(), guid.size());
    h.destGuid = Guid(guid);
    h.payloadLen = r.getU32();
    std::uint32_t crc = r.getU32();
    if (!r.ok() || !r.exhausted() ||
        crc32(frame.data(), frame.size() - 4) != crc)
        return std::nullopt;
    return h;
}

} // namespace oceanstore
