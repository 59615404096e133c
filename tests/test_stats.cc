/** @file Statistics accumulator tests. */

#include <gtest/gtest.h>

#include "util/stats.h"

namespace oceanstore {
namespace {

TEST(Accumulator, EmptyIsZero)
{
    Accumulator a;
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.mean(), 0.0);
    EXPECT_EQ(a.stddev(), 0.0);
    EXPECT_EQ(a.min(), 0.0);
    EXPECT_EQ(a.max(), 0.0);
}

TEST(Accumulator, BasicMoments)
{
    Accumulator a;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        a.add(v);
    EXPECT_EQ(a.count(), 8u);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    EXPECT_DOUBLE_EQ(a.variance(), 4.0);
    EXPECT_DOUBLE_EQ(a.stddev(), 2.0);
    EXPECT_EQ(a.min(), 2.0);
    EXPECT_EQ(a.max(), 9.0);
    EXPECT_DOUBLE_EQ(a.sum(), 40.0);
}

TEST(Accumulator, Percentiles)
{
    Accumulator a;
    for (int i = 1; i <= 100; i++)
        a.add(i);
    EXPECT_NEAR(a.percentile(50), 50.5, 0.01);
    EXPECT_EQ(a.percentile(0), 1.0);
    EXPECT_EQ(a.percentile(100), 100.0);
    EXPECT_NEAR(a.percentile(90), 90.1, 0.2);
}

TEST(Accumulator, ClearResets)
{
    Accumulator a;
    a.add(5);
    a.clear();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.mean(), 0.0);
}

TEST(Accumulator, SingleSample)
{
    Accumulator a;
    a.add(3.5);
    EXPECT_EQ(a.mean(), 3.5);
    EXPECT_EQ(a.variance(), 0.0);
    EXPECT_EQ(a.percentile(50), 3.5);
}

} // namespace
} // namespace oceanstore
