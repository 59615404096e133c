/**
 * @file
 * Hierarchical fragment hashing (Section 4.5).
 *
 * "To preserve the erasure nature of the fragments ... we use a
 * hierarchical hashing method to verify each fragment.  We generate a
 * hash over each fragment, and recursively hash over the concatenation
 * of pairs of hashes to form a binary tree.  Each fragment is stored
 * along with the hashes neighboring its path to the root. ... We can
 * use the top-most hash as the GUID to the immutable archival object,
 * making every fragment in the archive completely self-verifying."
 */

#ifndef OCEANSTORE_CRYPTO_MERKLE_H
#define OCEANSTORE_CRYPTO_MERKLE_H

#include <cstdint>
#include <vector>

#include "crypto/guid.h"
#include "crypto/sha1.h"
#include "util/bytes.h"

namespace oceanstore {

/**
 * One step of a Merkle verification path: the sibling hash and which
 * side of the concatenation it sits on.
 */
struct MerkleStep
{
    Sha1Digest sibling;  //!< Hash of the neighbouring subtree.
    bool siblingOnLeft;  //!< True if sibling precedes us in the concat.

    bool operator==(const MerkleStep &) const = default;
};

/** A leaf-to-root verification path. */
using MerklePath = std::vector<MerkleStep>;

/**
 * Binary Merkle tree over a set of leaf buffers.
 *
 * Odd nodes at any level are promoted unchanged (no duplication), so
 * the tree is defined for any non-zero leaf count.
 */
class MerkleTree
{
  public:
    /** Build the tree over @p leaves, Bytes or Blob (hashes each leaf
     *  buffer). */
    template <typename Leaf>
    explicit MerkleTree(const std::vector<Leaf> &leaves)
    {
        std::vector<Sha1Digest> hashes;
        hashes.reserve(leaves.size());
        for (const Leaf &leaf : leaves)
            hashes.push_back(Sha1::hash(leaf));
        build(std::move(hashes));
    }

    /** The top-most hash; used as the archival object's GUID. */
    const Sha1Digest &root() const { return levels_.back()[0]; }

    /** The root as a Guid. */
    Guid rootGuid() const { return Guid(root()); }

    /** Number of leaves. */
    std::size_t numLeaves() const { return levels_[0].size(); }

    /** Verification path for leaf @p index (the stored neighbours). */
    MerklePath path(std::size_t index) const;

    /**
     * Verify that @p leaf_data is the leaf at @p index of the tree
     * whose root is @p root, given its stored @p path.  Static: a
     * requesting machine can check a fragment with no other state,
     * which is what makes fragments self-verifying.
     */
    static bool verify(ByteSpan leaf_data, const MerklePath &path,
                       const Sha1Digest &root);

  private:
    /** Hash the levels above @p leaf_hashes up to the root. */
    void build(std::vector<Sha1Digest> leaf_hashes);

    static Sha1Digest combine(const Sha1Digest &left,
                              const Sha1Digest &right);

    /** levels_[0] = leaf hashes, levels_.back() = {root}. */
    std::vector<std::vector<Sha1Digest>> levels_;
};

} // namespace oceanstore

#endif // OCEANSTORE_CRYPTO_MERKLE_H
