/**
 * @file
 * Erasure-codec interface (Section 4.5).
 *
 * "Erasure coding is a process that treats input data as a series of
 * fragments (say n) and transforms these fragments into a greater
 * number of fragments (say 2n or 4n) ... any n of the coded fragments
 * are sufficient to construct the original data."  (Tornado codes
 * require slightly more than n — footnote 12.)
 */

#ifndef OCEANSTORE_ERASURE_CODEC_H
#define OCEANSTORE_ERASURE_CODEC_H

#include <optional>
#include <string>
#include <vector>

#include "util/bytes.h"

namespace oceanstore {

/** One fragment's bytes as decode input; std::nullopt = missing. */
using FragmentView = std::optional<ByteSpan>;

/**
 * Abstract erasure codec: k data fragments coded into t >= k total
 * fragments.  Implementations are deterministic so that independent
 * replicas can each "generate a disjoint subset of the fragments"
 * (Section 4.5) and agree on the result.
 */
class ErasureCodec
{
  public:
    virtual ~ErasureCodec() = default;

    /** Number of data fragments (the paper's n). */
    virtual unsigned dataFragments() const = 0;

    /** Total coded fragments (the paper's 2n or 4n). */
    virtual unsigned totalFragments() const = 0;

    /**
     * Encode @p data into totalFragments() equal-sized fragments, each
     * filled in place as the immutable buffer fragmentObject hands to
     * its Fragment.  The input is padded to a multiple of
     * dataFragments(); callers must remember the original size for
     * decode().
     */
    virtual std::vector<Blob> encodeBlobs(const Bytes &data) const = 0;

    /** encodeBlobs() into owned, writable buffers. */
    std::vector<Bytes>
    encode(const Bytes &data) const
    {
        std::vector<Bytes> frags;
        for (const Blob &f : encodeBlobs(data))
            frags.emplace_back(f.begin(), f.end());
        return frags;
    }

    /**
     * Reconstruct the original data from a subset of fragments.  The
     * fragment bytes are only borrowed for the call.
     *
     * @param fragments  indexed by fragment id; std::nullopt = missing
     * @param original_size  byte length of the original data
     * @return the data, or std::nullopt if too few fragments survive
     */
    virtual std::optional<Bytes>
    decodeViews(const std::vector<FragmentView> &fragments,
                std::size_t original_size) const = 0;

    /** decodeViews() over owned fragment buffers. */
    std::optional<Bytes>
    decode(const std::vector<std::optional<Bytes>> &fragments,
           std::size_t original_size) const
    {
        return decodeViews(
            std::vector<FragmentView>(fragments.begin(), fragments.end()),
            original_size);
    }

    /** Human-readable codec name for benchmark output. */
    virtual std::string name() const = 0;

    /** Rate = dataFragments / totalFragments. */
    double
    rate() const
    {
        return static_cast<double>(dataFragments()) /
               static_cast<double>(totalFragments());
    }
};

} // namespace oceanstore

#endif // OCEANSTORE_ERASURE_CODEC_H
