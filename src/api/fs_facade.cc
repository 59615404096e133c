#include "api/fs_facade.h"

#include "util/logging.h"

namespace oceanstore {

namespace {

std::vector<std::string>
splitPath(const std::string &path)
{
    std::vector<std::string> parts;
    std::string cur;
    for (char c : path) {
        if (c == '/') {
            if (!cur.empty()) {
                parts.push_back(cur);
                cur.clear();
            }
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        parts.push_back(cur);
    return parts;
}

} // namespace

FileSystemFacade::FileSystemFacade(Universe &universe,
                                   const KeyPair &user,
                                   const std::string &root_name,
                                   std::size_t home_server)
    : universe_(universe), user_(user), rootName_(root_name),
      session_(universe, home_server,
               SessionGuarantee::ReadYourWrites |
                   SessionGuarantee::MonotonicReads)
{
    ObjectHandle root = universe_.createObject(user_, fullName(""));
    rootGuid_ = root.guid();
    handles_.emplace(rootGuid_, root);
    storeWholeObject(root, Directory().serialize());
}

std::string
FileSystemFacade::fullName(const std::string &path) const
{
    return rootName_ + "//" + path;
}

ObjectHandle
FileSystemFacade::handleFor(const std::string &full_name) const
{
    return ObjectHandle(user_, full_name);
}

std::optional<Directory>
FileSystemFacade::loadDirectory(const Guid &dir_guid)
{
    auto hit = handles_.find(dir_guid);
    if (hit == handles_.end())
        return std::nullopt;
    ReadResult rr = session_.read(dir_guid);
    if (!rr.found)
        return std::nullopt;
    Bytes payload = hit->second.decryptContent(rr.blocks);
    if (payload.empty())
        return Directory();
    return Directory::deserialize(payload);
}

bool
FileSystemFacade::storeWholeObject(const ObjectHandle &handle,
                                   const Bytes &data)
{
    // Read-modify-write with a version guard; retry a few times under
    // contention (optimistic concurrency, Section 4.4).
    for (int attempt = 0; attempt < 5; attempt++) {
        ReadResult rr = session_.read(handle.guid());
        VersionNum version = rr.found ? rr.version : 0;
        std::size_t old_blocks = rr.found ? rr.blocks.size() : 0;

        UpdateClause clause;
        clause.predicates.push_back(CompareVersion{version});
        auto blocks = handle.splitBlocks(data);
        std::uint64_t base = (version + 1) * (1ull << 20);
        for (std::size_t i = 0; i < blocks.size(); i++) {
            Blob cipher = handle.encryptBlock(base + i, blocks[i]);
            if (i < old_blocks)
                clause.actions.push_back(ReplaceBlock{i, cipher});
            else
                clause.actions.push_back(AppendBlock{cipher});
        }
        for (std::size_t i = blocks.size(); i < old_blocks; i++)
            clause.actions.push_back(DeleteBlock{blocks.size()});

        Update u = handle.makeUpdate({std::move(clause)},
                                     session_.makeTimestamp());
        WriteResult wr = session_.write(u);
        if (wr.completed && wr.committed)
            return true;
    }
    return false;
}

std::optional<FileSystemFacade::Resolved>
FileSystemFacade::resolve(const std::string &path, bool want_parent,
                          std::string *leaf_name)
{
    auto parts = splitPath(path);
    if (want_parent) {
        if (parts.empty())
            return std::nullopt; // root has no parent
        if (leaf_name)
            *leaf_name = parts.back();
        parts.pop_back();
    }

    Resolved cur{rootGuid_, EntryKind::Directory};
    for (const auto &component : parts) {
        if (cur.kind != EntryKind::Directory)
            return std::nullopt;
        auto dir = loadDirectory(cur.guid);
        if (!dir.has_value())
            return std::nullopt;
        auto entry = dir->lookup(component);
        if (!entry.has_value())
            return std::nullopt;
        cur = Resolved{entry->target, entry->kind};
    }
    return cur;
}

bool
FileSystemFacade::mkdir(const std::string &path)
{
    std::string leaf;
    auto parent = resolve(path, true, &leaf);
    if (!parent.has_value() || parent->kind != EntryKind::Directory)
        return false;
    auto parent_dir = loadDirectory(parent->guid);
    if (!parent_dir.has_value())
        return false;
    if (parent_dir->lookup(leaf).has_value())
        return false; // already exists

    ObjectHandle child = universe_.createObject(user_, fullName(path));
    handles_.emplace(child.guid(), child);
    if (!storeWholeObject(child, Directory().serialize()))
        return false;

    parent_dir->bind(leaf, DirectoryEntry{child.guid(),
                                          EntryKind::Directory});
    auto hit = handles_.find(parent->guid);
    return storeWholeObject(hit->second, parent_dir->serialize());
}

bool
FileSystemFacade::writeFile(const std::string &path, const Bytes &data)
{
    std::string leaf;
    auto parent = resolve(path, true, &leaf);
    if (!parent.has_value() || parent->kind != EntryKind::Directory)
        return false;
    auto parent_dir = loadDirectory(parent->guid);
    if (!parent_dir.has_value())
        return false;

    auto existing = parent_dir->lookup(leaf);
    if (existing.has_value()) {
        if (existing->kind != EntryKind::Object)
            return false; // path is a directory
        auto hit = handles_.find(existing->target);
        if (hit == handles_.end())
            return false;
        return storeWholeObject(hit->second, data);
    }

    ObjectHandle file = universe_.createObject(user_, fullName(path));
    handles_.emplace(file.guid(), file);
    if (!storeWholeObject(file, data))
        return false;
    parent_dir->bind(leaf,
                     DirectoryEntry{file.guid(), EntryKind::Object});
    auto hit = handles_.find(parent->guid);
    return storeWholeObject(hit->second, parent_dir->serialize());
}

std::optional<Bytes>
FileSystemFacade::readFile(const std::string &path)
{
    auto target = resolve(path, false, nullptr);
    if (!target.has_value() || target->kind != EntryKind::Object)
        return std::nullopt;
    auto hit = handles_.find(target->guid);
    if (hit == handles_.end())
        return std::nullopt;
    ReadResult rr = session_.read(target->guid);
    if (!rr.found)
        return std::nullopt;
    return hit->second.decryptContent(rr.blocks);
}

std::optional<std::vector<std::string>>
FileSystemFacade::list(const std::string &path)
{
    auto target = resolve(path, false, nullptr);
    if (!target.has_value() || target->kind != EntryKind::Directory)
        return std::nullopt;
    auto dir = loadDirectory(target->guid);
    if (!dir.has_value())
        return std::nullopt;
    std::vector<std::string> names;
    for (const auto &[name, entry] : dir->entries())
        names.push_back(name);
    return names;
}

bool
FileSystemFacade::unlink(const std::string &path)
{
    std::string leaf;
    auto parent = resolve(path, true, &leaf);
    if (!parent.has_value())
        return false;
    auto parent_dir = loadDirectory(parent->guid);
    if (!parent_dir.has_value())
        return false;
    auto entry = parent_dir->lookup(leaf);
    if (!entry.has_value())
        return false;
    if (entry->kind == EntryKind::Directory) {
        // Only empty directories can be unlinked.
        auto child = loadDirectory(entry->target);
        if (!child.has_value() || !child->entries().empty())
            return false;
    }
    parent_dir->unbind(leaf);
    auto hit = handles_.find(parent->guid);
    // The object's versions remain in OceanStore (archival
    // permanence); only the name binding disappears.
    return storeWholeObject(hit->second, parent_dir->serialize());
}

bool
FileSystemFacade::exists(const std::string &path)
{
    return resolve(path, false, nullptr).has_value();
}

std::optional<Guid>
FileSystemFacade::guidOf(const std::string &path)
{
    auto target = resolve(path, false, nullptr);
    if (!target.has_value())
        return std::nullopt;
    return target->guid;
}

} // namespace oceanstore
