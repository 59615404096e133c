#include "naming/resolver.h"

#include "util/check.h"
#include "util/logging.h"

namespace oceanstore {

NameResolver::NameResolver(DirectoryFetcher fetcher)
    : fetcher_(std::move(fetcher))
{
    if (!fetcher_)
        fatal("NameResolver: null directory fetcher");
}

void
NameResolver::addRoot(const std::string &nickname, const Guid &dir_guid)
{
    OS_CHECK(nickname.find(':') == std::string::npos,
             "NameResolver: root nickname contains ':'");
    OS_CHECK(dir_guid.valid(), "NameResolver: invalid root GUID");
    roots_[nickname] = dir_guid;
}

void
NameResolver::removeRoot(const std::string &nickname)
{
    roots_.erase(nickname);
}

std::vector<std::string>
NameResolver::roots() const
{
    std::vector<std::string> out;
    out.reserve(roots_.size());
    for (const auto &[name, guid] : roots_)
        out.push_back(name);
    return out;
}

ResolveResult
NameResolver::resolve(const std::string &path) const
{
    ResolveResult res;

    auto colon = path.find(':');
    if (colon == std::string::npos)
        return res;
    std::string root_name = path.substr(0, colon);
    auto rit = roots_.find(root_name);
    if (rit == roots_.end())
        return res;

    // Split the remainder on '/', dropping a leading slash.
    std::string rest = path.substr(colon + 1);
    if (!rest.empty() && rest.front() == '/')
        rest.erase(rest.begin());

    std::vector<std::string> components;
    std::string cur;
    for (char c : rest) {
        if (c == '/') {
            if (cur.empty())
                return res; // empty component
            components.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        components.push_back(cur);

    Guid current = rit->second;
    EntryKind kind = EntryKind::Directory;
    for (std::size_t i = 0; i < components.size(); i++) {
        if (kind != EntryKind::Directory)
            return res; // tried to descend through a leaf
        auto payload = fetcher_(current);
        if (!payload.has_value())
            return res;
        std::optional<Directory> dir = Directory::deserialize(*payload);
        if (!dir)
            return res; // corrupt directory payload
        res.directoriesTraversed++;
        auto entry = dir->lookup(components[i]);
        if (!entry.has_value())
            return res;
        current = entry->target;
        kind = entry->kind;
    }

    res.found = true;
    res.target = current;
    res.kind = kind;
    return res;
}

Guid
NameResolver::selfCertifyingGuid(const Bytes &owner_pub_key,
                                 const std::string &name)
{
    return Guid::forObject(owner_pub_key, name);
}

bool
NameResolver::verifyOwnership(const Guid &guid,
                              const Bytes &owner_pub_key,
                              const std::string &name)
{
    return Guid::forObject(owner_pub_key, name) == guid;
}

} // namespace oceanstore
