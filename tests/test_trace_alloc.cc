/**
 * @file
 * Allocation contracts of the hot paths: with no Tracer attached, a
 * span costs one null check and touches no heap (DESIGN.md section
 * 11), and a warmed-up network send or multicast allocates nothing
 * (section 9).  Its own executable because it replaces the global
 * operator new/delete to count allocations; os_tests keeps the
 * sanitizers' own new/delete checks.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "obs/trace.h"
#include "sim/network.h"

namespace {

/** Heap allocations made by the calling thread. */
thread_local std::size_t tlAllocations = 0;

void *
countedAlloc(std::size_t n)
{
    tlAllocations++;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace oceanstore {
namespace {

TEST(Trace, DetachedSpanAllocatesNothing)
{
    ASSERT_EQ(Tracer::active(), nullptr);
    // The counter sees an allocation it is shown.
    std::size_t before = tlAllocations;
    ::operator delete(::operator new(1));
    ASSERT_EQ(tlAllocations - before, 1u);

    // 16 characters: past the inline capacity of a std::string.
    before = tlAllocations;
    {
        ScopedSpan span("archive", "archive.disperse", 1.0);
        span.end(2.0);
    }
    EXPECT_EQ(tlAllocations - before, 0u);
}

/** Accepts and forgets every message. */
class NullNode : public SimNode
{
  public:
    void handleMessage(const Message &) override {}
};

TEST(Network, DetachedSendAndMulticastAllocateNothing)
{
    ASSERT_EQ(Tracer::active(), nullptr);
    Simulator sim;
    Network net(sim, {});
    NullNode nodes[4];
    NodeId a = net.addNode(&nodes[0], 0.0, 0.0);
    std::vector<NodeId> tos;
    for (int i = 1; i < 4; i++)
        tos.push_back(net.addNode(&nodes[i], 0.1 * i, 0.0));

    // Warm-up grows the flight pool, the event queue and the per-type
    // byte map past what the measured calls need.
    for (int i = 0; i < 4; i++) {
        net.send(a, tos[0], makeMessage("t", i, 8));
        net.multicast(a, tos, makeMessage("t", i, 8));
    }
    sim.run();

    Message one = makeMessage("t", 1, 8);
    Message many = makeMessage("t", 2, 8);
    std::size_t before = tlAllocations;
    net.send(a, tos[0], std::move(one));
    net.multicast(a, tos, std::move(many));
    EXPECT_EQ(tlAllocations - before, 0u);
    EXPECT_EQ(net.inFlight(), 4u);
    sim.run();
}

} // namespace
} // namespace oceanstore
