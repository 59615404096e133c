#include "core/versioning.h"

#include <algorithm>
#include <charconv>

namespace oceanstore {

std::string
VersionedName::toString() const
{
    if (!version.has_value())
        return guid.hex();
    return guid.hex() + "@" + std::to_string(*version);
}

std::optional<VersionedName>
VersionedName::parse(const std::string &name)
{
    auto at = name.find('@');
    std::optional<Guid> guid =
        Guid::fromHex(std::string_view(name).substr(0, at));
    if (!guid)
        return std::nullopt;
    VersionedName vn;
    vn.guid = *guid;
    if (at != std::string::npos) {
        VersionNum v = 0;
        const char *end = name.data() + name.size();
        auto [ptr, ec] = std::from_chars(name.data() + at + 1, end, v);
        if (ec != std::errc() || ptr != end)
            return std::nullopt;
        vn.version = v;
    }
    return vn;
}

std::vector<VersionRecord>
modificationHistory(const DataObject &obj)
{
    std::vector<VersionRecord> history;
    history.reserve(obj.log().size());
    for (const LogEntry &e : obj.log()) {
        VersionRecord rec;
        rec.version = e.versionAfter;
        rec.timestamp = e.update->timestamp;
        rec.writerPublicKey = e.update->writerPublicKey;
        rec.committed = e.committed;
        for (const auto &clause : e.update->clauses)
            rec.actions += clause.actions.size();
        history.push_back(std::move(rec));
    }
    return history;
}

std::set<VersionNum>
selectRetainedVersions(const std::vector<VersionNum> &versions,
                       const RetentionPolicy &policy)
{
    std::set<VersionNum> keep;
    if (versions.empty())
        return keep;

    std::vector<VersionNum> sorted = versions;
    std::sort(sorted.begin(), sorted.end());
    VersionNum latest = sorted.back();
    keep.insert(latest); // the active form is never retired

    switch (policy.kind) {
      case RetentionKind::KeepAll:
        keep.insert(sorted.begin(), sorted.end());
        break;

      case RetentionKind::KeepLast: {
        std::size_t n = std::min<std::size_t>(policy.keepLast,
                                              sorted.size());
        for (std::size_t i = sorted.size() - n; i < sorted.size(); i++)
            keep.insert(sorted[i]);
        break;
      }

      case RetentionKind::KeepLandmarks: {
        // Dense recent window ...
        std::size_t window = std::min<std::size_t>(
            policy.landmarkWindow, sorted.size());
        for (std::size_t i = sorted.size() - window; i < sorted.size();
             i++) {
            keep.insert(sorted[i]);
        }
        // ... plus every stride-th older version as a landmark,
        // counting from the oldest so landmarks are stable as new
        // versions arrive.
        unsigned stride = std::max(1u, policy.landmarkStride);
        for (std::size_t i = 0; i + window < sorted.size();
             i += stride) {
            keep.insert(sorted[i]);
        }
        break;
      }
    }
    return keep;
}

} // namespace oceanstore
