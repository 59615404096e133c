/**
 * @file
 * Statistics accumulators used by benchmarks and introspection.
 */

#ifndef OCEANSTORE_UTIL_STATS_H
#define OCEANSTORE_UTIL_STATS_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace oceanstore {

/**
 * Online accumulator of scalar samples.
 *
 * Tracks count, sum, min, max and (via Welford's algorithm) variance.
 * Optionally retains samples so that percentiles can be queried; the
 * benchmark harnesses rely on this for stretch CDFs.
 */
class Accumulator
{
  public:
    /** @param keep_samples retain raw samples for percentile queries. */
    explicit Accumulator(bool keep_samples = true)
        : keepSamples_(keep_samples) {}

    /** Add one sample. */
    void add(double x);

    /** Number of samples seen. */
    std::size_t count() const { return count_; }

    /** Sum of all samples. */
    double sum() const { return sum_; }

    /** Arithmetic mean (0 when empty). */
    double mean() const;

    /** Population variance (0 when fewer than two samples). */
    double variance() const;

    /** Population standard deviation. */
    double stddev() const;

    /** Minimum sample (0 when empty). */
    double min() const { return count_ ? min_ : 0.0; }

    /** Maximum sample (0 when empty). */
    double max() const { return count_ ? max_ : 0.0; }

    /**
     * p-th percentile, p in [0, 100].  Contract: the accumulator must
     * have been constructed with keep_samples=true (OS_CHECK aborts
     * otherwise — a percentile over discarded samples would silently
     * misreport).  Uses nearest-rank on the sorted samples.
     */
    double percentile(double p) const;

    /** Reset to empty. */
    void clear();

  private:
    bool keepSamples_;
    std::size_t count_ = 0;
    double sum_ = 0.0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

} // namespace oceanstore

#endif // OCEANSTORE_UTIL_STATS_H
