#include "plaxton/pointer_table.h"

#include <bit>
#include <cstring>
#include <type_traits>

namespace oceanstore {

std::size_t
PointerTable::home(const Guid &g) const
{
    // Fibonacci hashing keeps GUIDs that differ only in a few bits
    // (test fixtures, hand-made keys) from sharing a home.
    const unsigned bits =
        static_cast<unsigned>(std::countr_zero(slots_.size()));
    return static_cast<std::size_t>(
        (g.hash64() * 0x9e3779b97f4a7c15ull) >> (64 - bits));
}

std::size_t
PointerTable::find(const Guid &g) const
{
    if (size_ == 0)
        return slots_.size();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(g);; i = (i + 1) & mask) {
        const Slot &s = slots_[i];
        if (s.count == 0)
            return slots_.size();
        if (s.key == g)
            return i;
    }
}

std::span<const NodeId>
PointerTable::storers(const Guid &g) const
{
    std::size_t i = find(g);
    if (i == slots_.size())
        return {};
    return slots_[i].view();
}

void
PointerTable::grow()
{
    static_assert(std::is_trivially_copyable_v<Slot>);
    std::vector<Slot> old(slots_.empty() ? 8 : 2 * slots_.size());
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (const Slot &s : old) {
        if (s.count == 0)
            continue;
        std::size_t i = home(s.key);
        while (slots_[i].count != 0)
            i = (i + 1) & mask;
        slots_[i] = s; // the heap run, if any, moves with it
    }
}

bool
PointerTable::insert(const Guid &g, NodeId storer)
{
    std::size_t i = find(g);
    if (i == slots_.size()) {
        // A new object: keep the load at or under 3/4.
        if (4 * (size_ + 1) > 3 * slots_.size())
            grow();
        const std::size_t mask = slots_.size() - 1;
        i = home(g);
        while (slots_[i].count != 0)
            i = (i + 1) & mask;
        Slot &s = slots_[i];
        s.key = g;
        s.count = 1;
        s.inl[0] = storer;
        size_++;
        return true;
    }

    Slot &s = slots_[i];
    NodeId *run = s.run();
    NodeId *at = std::lower_bound(run, run + s.count, storer);
    if (at != run + s.count && *at == storer)
        return false;
    const auto pos = static_cast<std::size_t>(at - run);
    // A heap run of a power-of-two length fills its array.
    if (s.count == inlineStorers ||
        (s.onHeap() && std::has_single_bit(s.count))) {
        // The run is full: move it to a heap array twice its length.
        auto *grown = new NodeId[2 * std::size_t{s.count}];
        std::memcpy(grown, run, pos * sizeof(NodeId));
        std::memcpy(grown + pos + 1, run + pos,
                    (s.count - pos) * sizeof(NodeId));
        if (s.onHeap())
            delete[] s.heap;
        s.heap = grown;
    } else {
        std::memmove(run + pos + 1, run + pos,
                     (s.count - pos) * sizeof(NodeId));
    }
    s.count++;
    s.run()[pos] = storer;
    return true;
}

bool
PointerTable::erase(const Guid &g, NodeId storer)
{
    std::size_t i = find(g);
    if (i == slots_.size())
        return false;
    Slot &s = slots_[i];
    NodeId *run = s.run();
    NodeId *at = std::lower_bound(run, run + s.count, storer);
    if (at == run + s.count || *at != storer)
        return false;
    if (s.count == 1) {
        removeSlot(i);
        return true;
    }
    const auto pos = static_cast<std::size_t>(at - run);
    std::memmove(run + pos, run + pos + 1,
                 (s.count - pos - 1) * sizeof(NodeId));
    s.count--;
    if (s.count == inlineStorers) {
        // Back to inline: copy out before the heap array goes.
        NodeId *heap = s.heap;
        std::memcpy(s.inl, heap, inlineStorers * sizeof(NodeId));
        delete[] heap;
    }
    return true;
}

void
PointerTable::removeSlot(std::size_t i)
{
    const std::size_t mask = slots_.size() - 1;
    if (slots_[i].onHeap())
        delete[] slots_[i].heap;
    // Backward-shift deletion: pull each later member of the probe
    // cluster into the hole unless its home lies cyclically in
    // (hole, member], where it would no longer be found.
    for (std::size_t j = (i + 1) & mask; slots_[j].count != 0;
         j = (j + 1) & mask) {
        std::size_t h = home(slots_[j].key);
        bool stays = i <= j ? (i < h && h <= j) : (i < h || h <= j);
        if (stays)
            continue;
        slots_[i] = slots_[j];
        i = j;
    }
    slots_[i].count = 0;
    size_--;
}

void
PointerTable::releaseRuns()
{
    for (Slot &s : slots_) {
        if (s.onHeap())
            delete[] s.heap;
    }
}

void
PointerTable::clear()
{
    releaseRuns();
    std::vector<Slot>().swap(slots_);
    size_ = 0;
}

} // namespace oceanstore
