/**
 * @file
 * Allocation contract of detached tracing (DESIGN.md section 11):
 * with no Tracer attached, a span costs one null check and touches
 * no heap.  Its own executable because it replaces the global
 * operator new/delete to count allocations; os_tests keeps the
 * sanitizers' own new/delete checks.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>

#include "obs/trace.h"

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

} // namespace
} // namespace oceanstore
