/**
 * @file
 * Introspective prefetching (Sections 4.7.2 and 5).
 *
 * The Section 5 status report: "We have implemented the introspective
 * prefetching mechanism for a local file system.  Testing showed that
 * the method correctly captured high-order correlations, even in the
 * presence of noise."  The predictor here is an order-k Markov model
 * over the object reference stream — contexts of the last k accesses
 * vote on likely successors, with shorter-context fallback, in the
 * spirit of [20, 27].
 */

#ifndef OCEANSTORE_INTROSPECT_PREFETCH_H
#define OCEANSTORE_INTROSPECT_PREFETCH_H

#include <deque>
#include <map>
#include <vector>

#include "crypto/guid.h"

namespace oceanstore {

/** Markov-context prefetcher over object accesses. */
class Prefetcher
{
  public:
    /**
     * @param order   maximum context length (k); higher orders
     *                capture the "high-order correlations" of Sec. 5
     * @param breadth predictions returned per query
     */
    explicit Prefetcher(unsigned order = 2, unsigned breadth = 2);

    /**
     * Record an access and update every context order's transition
     * counts.  O(order) per access.
     */
    void onAccess(const Guid &obj);

    /**
     * Predict the most likely next objects given the current
     * context.  Longest matching context wins; falls back to shorter
     * contexts (down to order 1) when a long context is unseen.
     */
    std::vector<Guid> predict() const;

    /** Convenience: was @p obj among predict() just before access? */
    bool wouldHaveHit(const Guid &obj) const;

  private:
    /** Serialized context key: concatenated GUID hashes. */
    using ContextKey = std::vector<std::uint64_t>;

    unsigned order_;
    unsigned breadth_;
    std::deque<Guid> history_;
    /** per order (1-based): context -> successor -> count. */
    std::vector<std::map<ContextKey, std::map<Guid, std::uint64_t>>>
        tables_;
};

} // namespace oceanstore

#endif // OCEANSTORE_INTROSPECT_PREFETCH_H
