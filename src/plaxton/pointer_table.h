/**
 * @file
 * The location pointers deposited on one mesh node (DESIGN.md section
 * 24).
 *
 * An open-addressing table (linear probing, backward-shift erase)
 * keyed by the object GUID's own bits: a GUID is already a uniform
 * hash, so hash64() picks the home slot and a deposit or a lookup
 * costs about one probe.  Each slot holds one GUID and the storers
 * that published it as an ascending run, inline up to inlineStorers
 * and on the heap beyond.  An empty table owns no memory, and clear()
 * gives all of it back.
 *
 * Slot order is hash order and is never visible: collect() returns
 * what it selects sorted by (GUID, storer), so a caller that writes
 * through or sends in that order stays deterministic.
 */

#ifndef OCEANSTORE_PLAXTON_POINTER_TABLE_H
#define OCEANSTORE_PLAXTON_POINTER_TABLE_H

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "crypto/guid.h"
#include "sim/message.h"

namespace oceanstore {

/** One mesh node's location pointers: object GUID -> storers. */
class PointerTable
{
  public:
    /** Storers a slot holds without a heap run. */
    static constexpr std::uint32_t inlineStorers = 4;

    PointerTable() = default;
    ~PointerTable() { releaseRuns(); }

    PointerTable(PointerTable &&other) noexcept
        : slots_(std::move(other.slots_)),
          size_(std::exchange(other.size_, 0))
    {
        other.slots_.clear();
    }

    PointerTable &
    operator=(PointerTable &&other) noexcept
    {
        if (this != &other) {
            releaseRuns();
            slots_ = std::move(other.slots_);
            other.slots_.clear();
            size_ = std::exchange(other.size_, 0);
        }
        return *this;
    }

    PointerTable(const PointerTable &) = delete;
    PointerTable &operator=(const PointerTable &) = delete;

    /** Storers of @p g in ascending NodeId order; empty when none. */
    std::span<const NodeId> storers(const Guid &g) const;

    /** Add @p storer for @p g.  @return false when already present. */
    bool insert(const Guid &g, NodeId storer);

    /** Remove @p storer for @p g, and @p g once it has no storer
     *  left.  @return false when it was not present. */
    bool erase(const Guid &g, NodeId storer);

    /** Drop every pointer and free the table's memory. */
    void clear();

    /** Objects with at least one storer. */
    std::size_t size() const { return size_; }

    /** Every (GUID, storer) pair for which @p pred(g, storer) holds,
     *  sorted by GUID, then storer. */
    template <typename Pred>
    std::vector<std::pair<Guid, NodeId>>
    collect(Pred pred) const
    {
        std::vector<std::pair<Guid, NodeId>> out;
        for (const Slot &s : slots_) {
            for (NodeId storer : s.view()) {
                if (pred(s.key, storer))
                    out.emplace_back(s.key, storer);
            }
        }
        std::sort(out.begin(), out.end());
        return out;
    }

  private:
    /** One object's pointers.  Trivially copyable, so probing and
     *  rehashing move slots by value; the heap run, if any, belongs
     *  to whichever slot holds it.  A run longer than inlineStorers
     *  lives on the heap, in an array of std::bit_ceil(count). */
    struct Slot
    {
        Guid key;
        /** Storers in the run; 0 marks an empty slot. */
        std::uint32_t count = 0;
        union
        {
            NodeId inl[inlineStorers] = {};
            NodeId *heap;
        };

        bool onHeap() const { return count > inlineStorers; }
        NodeId *run() { return onHeap() ? heap : inl; }
        const NodeId *run() const { return onHeap() ? heap : inl; }
        std::span<const NodeId> view() const { return {run(), count}; }
    };

    /** Home slot of @p g in a table of slots_.size() (a power of 2). */
    std::size_t home(const Guid &g) const;

    /** Slot holding @p g, or slots_.size() when absent. */
    std::size_t find(const Guid &g) const;

    /** Double the slot array (8 slots when empty) and reinsert. */
    void grow();

    /** Free every heap run (the slots themselves stay). */
    void releaseRuns();

    /** Empty slot @p i, shifting later probes of its cluster back. */
    void removeSlot(std::size_t i);

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

} // namespace oceanstore

#endif // OCEANSTORE_PLAXTON_POINTER_TABLE_H
