#include "api/web_gateway.h"

#include "util/check.h"

namespace oceanstore {

WebGateway::WebGateway(Universe &universe, std::size_t home_server)
    : universe_(universe), homeServer_(home_server)
{
    OS_CHECK(home_server < universe.numServers(),
             "WebGateway: home server ", home_server, " of ",
             universe.numServers());
}

bool
WebGateway::publish(const KeyPair &owner, const std::string &url,
                    const Bytes &body)
{
    auto it = sites_.find(url);
    if (it == sites_.end()) {
        ObjectHandle handle =
            universe_.createObject(owner, "web://" + url);
        it = sites_.emplace(url, Site{handle, 0}).first;
    }
    Site &site = it->second;

    // Full-content replace conditioned on the version we believe in;
    // retried under contention like any optimistic writer.
    for (int attempt = 0; attempt < 5; attempt++) {
        ReadResult rr = universe_.readSync(homeServer_,
                                           site.handle.guid());
        VersionNum version = rr.found ? rr.version : 0;
        std::size_t old_blocks = rr.found ? rr.blocks.size() : 0;

        UpdateClause clause;
        clause.predicates.push_back(CompareVersion{version});
        auto blocks = site.handle.splitBlocks(body);
        std::uint64_t base = (version + 1) * (1ull << 20);
        for (std::size_t i = 0; i < blocks.size(); i++) {
            Blob cipher = site.handle.encryptBlock(base + i,
                                                   blocks[i]);
            if (i < old_blocks)
                clause.actions.push_back(ReplaceBlock{i, cipher});
            else
                clause.actions.push_back(AppendBlock{cipher});
        }
        for (std::size_t i = blocks.size(); i < old_blocks; i++)
            clause.actions.push_back(DeleteBlock{blocks.size()});

        Update u = site.handle.makeUpdate({std::move(clause)},
                                          Timestamp{++tsCounter_, 77});
        WriteResult wr = universe_.writeSync(u);
        if (wr.completed && wr.committed) {
            site.publishedVersion = wr.version;
            universe_.advance(5.0); // let dissemination settle
            return true;
        }
    }
    return false;
}

WebResponse
WebGateway::get(const std::string &url)
{
    WebResponse res;
    auto it = sites_.find(url);
    if (it == sites_.end())
        return res; // 404

    const Site &site = it->second;
    ReadResult rr = universe_.readSync(homeServer_, site.handle.guid());
    res.latency = rr.latency;
    if (!rr.found) {
        res.status = 503; // registered but unlocatable right now
        return res;
    }
    res.version = rr.version;

    // Validating cache: the (cheap) read already told us the current
    // version; serve the cached body when it matches.
    auto cit = cache_.find(url);
    if (cit != cache_.end() && cit->second.version == rr.version) {
        cacheHits_++;
        res.status = 200;
        res.body = cit->second.body;
        res.fromCache = true;
        return res;
    }

    cacheMisses_++;
    res.status = 200;
    res.body = site.handle.decryptContent(rr.blocks);
    cache_[url] = CacheEntry{rr.version, res.body};
    return res;
}

} // namespace oceanstore
