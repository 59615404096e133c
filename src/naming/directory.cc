#include "naming/directory.h"

namespace oceanstore {

void
Directory::bind(const std::string &name, const DirectoryEntry &entry)
{
    entries_[name] = entry;
}

bool
Directory::unbind(const std::string &name)
{
    return entries_.erase(name) > 0;
}

std::optional<DirectoryEntry>
Directory::lookup(const std::string &name) const
{
    auto it = entries_.find(name);
    if (it == entries_.end())
        return std::nullopt;
    return it->second;
}

Bytes
Directory::serialize() const
{
    ByteWriter w;
    w.putU32(static_cast<std::uint32_t>(entries_.size()));
    for (const auto &[name, entry] : entries_) {
        w.putString(name);
        w.putRaw(entry.target.toBytes());
        w.putU8(static_cast<std::uint8_t>(entry.kind));
    }
    return w.take();
}

std::optional<Directory>
Directory::deserialize(const Bytes &payload)
{
    Directory dir;
    ByteReader r(payload);
    std::uint32_t n = r.getU32();
    // An entry is at least a name length, a GUID and a kind byte.
    if (r.backs(n, 4 + Guid::numBytes + 1)) {
        for (std::uint32_t i = 0; i < n; i++) {
            std::string name = r.getString();
            Sha1Digest target{};
            r.getRaw(target.data(), target.size());
            auto kind = static_cast<EntryKind>(r.getU8());
            if (kind != EntryKind::Object && kind != EntryKind::Directory)
                r.fail();
            dir.bind(name, DirectoryEntry{Guid(target), kind});
        }
    }
    if (!r.ok() || !r.exhausted())
        return std::nullopt;
    return dir;
}

} // namespace oceanstore
