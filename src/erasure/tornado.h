/**
 * @file
 * Tornado-style erasure code (Section 4.5, citing Luby et al. [32]).
 *
 * An irregular-bipartite-graph XOR code with a peeling decoder.  Check
 * fragments are XORs of pseudo-randomly chosen data fragments with an
 * irregular degree distribution; decoding repeatedly resolves check
 * equations with exactly one missing neighbor.  As the paper notes
 * (footnote 12), such codes are much faster than Reed-Solomon —
 * encoding and decoding are pure XOR — but "require slightly more
 * than n fragments to reconstruct the information".
 */

#ifndef OCEANSTORE_ERASURE_TORNADO_H
#define OCEANSTORE_ERASURE_TORNADO_H

#include <cstdint>
#include <vector>

#include "erasure/codec.h"

namespace oceanstore {

/** Tornado-style codec with k data and t total fragments. */
class TornadoCode : public ErasureCodec
{
  public:
    /**
     * @param k    data fragments
     * @param t    total fragments (t > k)
     * @param seed deterministic graph seed; encoder and decoder must
     *             agree on it (it would ship in object metadata)
     */
    TornadoCode(unsigned k, unsigned t, std::uint64_t seed = 0x70524e44u);

    unsigned dataFragments() const override { return k_; }
    unsigned totalFragments() const override { return t_; }

    std::vector<Blob> encodeBlobs(const Bytes &data) const override;

    std::optional<Bytes>
    decodeViews(const std::vector<FragmentView> &fragments,
                std::size_t original_size) const override;

    std::string name() const override;

    /** Neighbor lists of each check fragment (for tests). */
    const std::vector<std::vector<unsigned>> &graph() const
    {
        return checkNeighbors_;
    }

  private:
    void buildGraph(std::uint64_t seed);

    unsigned k_;
    unsigned t_;
    /** checkNeighbors_[i] = data indices XORed into check k_+i. */
    std::vector<std::vector<unsigned>> checkNeighbors_;
};

} // namespace oceanstore

#endif // OCEANSTORE_ERASURE_TORNADO_H
