/**
 * @file
 * Directory objects (Section 4.1).
 *
 * "Certain OceanStore objects act as directories, mapping human-
 * readable names to GUIDs.  To allow arbitrary directory hierarchies
 * to be built, we allow directories to contain pointers to other
 * directories."  A directory is an ordinary OceanStore object whose
 * payload is the serialized entry map, so it inherits replication,
 * versioning and archival for free.
 */

#ifndef OCEANSTORE_NAMING_DIRECTORY_H
#define OCEANSTORE_NAMING_DIRECTORY_H

#include <map>
#include <optional>
#include <string>

#include "crypto/guid.h"
#include "util/bytes.h"

namespace oceanstore {

/** Kind of a directory entry. */
enum class EntryKind : std::uint8_t
{
    Object = 0,    //!< Leaf object.
    Directory = 1, //!< Pointer to another directory object.
};

/** One name binding inside a directory. */
struct DirectoryEntry
{
    Guid target;
    EntryKind kind = EntryKind::Object;

    bool operator==(const DirectoryEntry &) const = default;
};

/**
 * In-memory form of a directory object's payload.
 *
 * Directory payloads serialize to a canonical byte string so that the
 * same logical directory always hashes identically.
 */
class Directory
{
  public:
    Directory() = default;

    /** Bind @p name to @p entry (replacing any previous binding). */
    void bind(const std::string &name, const DirectoryEntry &entry);

    /** Remove a binding.  @return true if it existed. */
    bool unbind(const std::string &name);

    /** Look up a binding. */
    std::optional<DirectoryEntry> lookup(const std::string &name) const;

    /** All bindings, sorted by name. */
    const std::map<std::string, DirectoryEntry> &entries() const
    {
        return entries_;
    }

    /** Canonical serialized payload. */
    Bytes serialize() const;

    /** Parse a serialized payload; nullopt on malformed input. */
    static std::optional<Directory> deserialize(const Bytes &payload);

  private:
    std::map<std::string, DirectoryEntry> entries_;
};

} // namespace oceanstore

#endif // OCEANSTORE_NAMING_DIRECTORY_H
