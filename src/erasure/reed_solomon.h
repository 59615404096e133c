/**
 * @file
 * Systematic Cauchy Reed-Solomon erasure code (Section 4.5, [39]; the
 * Intermemory lineage [18] used the same Cauchy construction).
 *
 * Fragments 0..k-1 are the raw data stripes; fragments k..t-1 are
 * parity stripes formed with a Cauchy matrix, every square submatrix
 * of which is nonsingular — hence *any* k of the t fragments decode.
 */

#ifndef OCEANSTORE_ERASURE_REED_SOLOMON_H
#define OCEANSTORE_ERASURE_REED_SOLOMON_H

#include "erasure/codec.h"

namespace oceanstore {

/** Cauchy Reed-Solomon codec with k data and t total fragments. */
class ReedSolomonCode : public ErasureCodec
{
  public:
    /**
     * @param k data fragments
     * @param t total fragments; requires k >= 1, t > k, t <= 256
     */
    ReedSolomonCode(unsigned k, unsigned t);

    unsigned dataFragments() const override { return k_; }
    unsigned totalFragments() const override { return t_; }

    std::vector<Blob> encodeBlobs(const Bytes &data) const override;

    std::optional<Bytes>
    decodeViews(const std::vector<FragmentView> &fragments,
                std::size_t original_size) const override;

    std::string name() const override;

  private:
    /** Row @p row of the (t x k) generator matrix. */
    std::vector<std::uint8_t> generatorRow(unsigned row) const;

    unsigned k_;
    unsigned t_;
    /** Cauchy rows k..t-1 of the generator, row-major, built once. */
    std::vector<std::uint8_t> parity_;
};

} // namespace oceanstore

#endif // OCEANSTORE_ERASURE_REED_SOLOMON_H
