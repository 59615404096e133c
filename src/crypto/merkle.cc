#include "crypto/merkle.h"

#include <stdexcept>

namespace oceanstore {

Sha1Digest
MerkleTree::combine(const Sha1Digest &left, const Sha1Digest &right)
{
    Sha1 h;
    h.update(left.data(), left.size());
    h.update(right.data(), right.size());
    return h.finish();
}

void
MerkleTree::build(std::vector<Sha1Digest> leaf_hashes)
{
    if (leaf_hashes.empty())
        throw std::invalid_argument("MerkleTree: no leaves");
    levels_.push_back(std::move(leaf_hashes));

    while (levels_.back().size() > 1) {
        const auto &below = levels_.back();
        std::vector<Sha1Digest> above;
        above.reserve((below.size() + 1) / 2);
        for (std::size_t i = 0; i + 1 < below.size(); i += 2)
            above.push_back(combine(below[i], below[i + 1]));
        if (below.size() % 2 == 1)
            above.push_back(below.back()); // promote odd node
        levels_.push_back(std::move(above));
    }
}

MerklePath
MerkleTree::path(std::size_t index) const
{
    if (index >= numLeaves())
        throw std::out_of_range("MerkleTree::path: bad leaf index");

    MerklePath p;
    std::size_t pos = index;
    for (std::size_t lvl = 0; lvl + 1 < levels_.size(); lvl++) {
        const auto &level = levels_[lvl];
        std::size_t sibling = (pos % 2 == 0) ? pos + 1 : pos - 1;
        if (sibling < level.size()) {
            p.push_back({level[sibling], pos % 2 == 1});
        }
        // When pos is the promoted odd node there is no sibling and
        // the hash passes upward unchanged; no step is recorded.
        pos /= 2;
        if (pos >= levels_[lvl + 1].size())
            pos = levels_[lvl + 1].size() - 1;
    }
    return p;
}

bool
MerkleTree::verify(ByteSpan leaf_data, const MerklePath &path,
                   const Sha1Digest &root)
{
    Sha1Digest h = Sha1::hash(leaf_data);
    for (const auto &step : path) {
        h = step.siblingOnLeft ? combine(step.sibling, h)
                               : combine(h, step.sibling);
    }
    return h == root;
}

} // namespace oceanstore
