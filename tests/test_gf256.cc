/** @file GF(2^8) field axiom property tests. */

#include <vector>

#include <gtest/gtest.h>

#include "erasure/gf256.h"

namespace oceanstore {
namespace {

TEST(Gf256, AdditionIsXor)
{
    EXPECT_EQ(gf256::add(0x57, 0x83), 0x57 ^ 0x83);
    EXPECT_EQ(gf256::add(5, 5), 0);
}

TEST(Gf256, MultiplicativeIdentity)
{
    for (unsigned a = 0; a < 256; a++)
        EXPECT_EQ(gf256::mul(static_cast<std::uint8_t>(a), 1), a);
}

TEST(Gf256, MultiplyByZero)
{
    for (unsigned a = 0; a < 256; a++)
        EXPECT_EQ(gf256::mul(static_cast<std::uint8_t>(a), 0), 0);
}

TEST(Gf256, MultiplicationCommutes)
{
    for (unsigned a = 1; a < 256; a += 7) {
        for (unsigned b = 1; b < 256; b += 11) {
            EXPECT_EQ(gf256::mul(a, b), gf256::mul(b, a));
        }
    }
}

TEST(Gf256, MultiplicationAssociates)
{
    for (unsigned a = 1; a < 256; a += 31) {
        for (unsigned b = 1; b < 256; b += 29) {
            for (unsigned c = 1; c < 256; c += 37) {
                EXPECT_EQ(gf256::mul(gf256::mul(a, b), c),
                          gf256::mul(a, gf256::mul(b, c)));
            }
        }
    }
}

TEST(Gf256, DistributesOverAddition)
{
    for (unsigned a = 1; a < 256; a += 13) {
        for (unsigned b = 0; b < 256; b += 17) {
            for (unsigned c = 0; c < 256; c += 19) {
                EXPECT_EQ(gf256::mul(a, gf256::add(b, c)),
                          gf256::add(gf256::mul(a, b),
                                     gf256::mul(a, c)));
            }
        }
    }
}

TEST(Gf256, EveryNonzeroHasInverse)
{
    for (unsigned a = 1; a < 256; a++) {
        std::uint8_t inv = gf256::inv(static_cast<std::uint8_t>(a));
        EXPECT_EQ(gf256::mul(static_cast<std::uint8_t>(a), inv), 1)
            << "a=" << a;
    }
}

TEST(Gf256, DivisionInvertsMultiplication)
{
    for (unsigned a = 0; a < 256; a += 5) {
        for (unsigned b = 1; b < 256; b += 7) {
            std::uint8_t q = gf256::div(a, b);
            EXPECT_EQ(gf256::mul(q, b), a);
        }
    }
}

TEST(Gf256, KnownAesStyleProduct)
{
    // 2 * 128 over 0x11d: 0x100 ^ 0x11d = 0x1d.
    EXPECT_EQ(gf256::mul(2, 0x80), 0x1d);
}

TEST(Gf256, PowMatchesRepeatedMul)
{
    for (unsigned a = 1; a < 256; a += 23) {
        std::uint8_t acc = 1;
        for (unsigned n = 0; n < 10; n++) {
            EXPECT_EQ(gf256::pow(a, n), acc) << "a=" << a << " n=" << n;
            acc = gf256::mul(acc, static_cast<std::uint8_t>(a));
        }
    }
}

TEST(Gf256, PowLargeExponentsReduceByGroupOrder)
{
    // The multiplicative group has order 255, so a^n == a^(n % 255).
    // Regression: the old implementation computed
    // (logTable[a] * n) % 255 in unsigned arithmetic, which wraps for
    // n > ~16.9M and returned wrong powers for large exponents.
    for (unsigned a : {2u, 3u, 29u, 133u, 254u}) {
        auto b = static_cast<std::uint8_t>(a);
        EXPECT_EQ(gf256::pow(b, 255), 1) << "a=" << a;
        EXPECT_EQ(gf256::pow(b, 256), b) << "a=" << a;
        for (unsigned n : {1u << 25, 1u << 31, 4294967295u}) {
            EXPECT_EQ(gf256::pow(b, n), gf256::pow(b, n % 255u))
                << "a=" << a << " n=" << n;
        }
    }
    EXPECT_EQ(gf256::pow(0, 1u << 30), 0); // 0^n stays 0
}

TEST(Gf256, MulAddAccumulates)
{
    std::uint8_t dst[4] = {1, 2, 3, 4};
    std::uint8_t src[4] = {5, 6, 7, 8};
    gf256::mulAdd(dst, src, 3, 4);
    for (int i = 0; i < 4; i++) {
        std::uint8_t expect = static_cast<std::uint8_t>(
            (i + 1) ^ gf256::mul(3, src[i]));
        EXPECT_EQ(dst[i], expect);
    }
}

TEST(Gf256, MulAddByOneIsXor)
{
    std::uint8_t dst[2] = {0xaa, 0x55};
    std::uint8_t src[2] = {0x0f, 0xf0};
    gf256::mulAdd(dst, src, 1, 2);
    EXPECT_EQ(dst[0], 0xaa ^ 0x0f);
    EXPECT_EQ(dst[1], 0x55 ^ 0xf0);
}

TEST(Gf256, MulAddByZeroIsNoop)
{
    std::uint8_t dst[2] = {9, 9};
    std::uint8_t src[2] = {1, 2};
    gf256::mulAdd(dst, src, 0, 2);
    EXPECT_EQ(dst[0], 9);
    EXPECT_EQ(dst[1], 9);
}

TEST(Gf256, MulAddMatchesBytewiseMul)
{
    // mulAdd against the scalar field multiply for every coefficient,
    // lengths 0..97 (empty, sub-vector, one and several 32-byte vector
    // bodies plus every tail length) and src/dst misaligned by 0..3.
    // src is sized exactly, so an over-read trips ASan; dst carries a
    // guard tail that must come back untouched.
    constexpr std::size_t kGuard = 32;
    for (unsigned c = 0; c < 256; c++) {
        const auto coef = static_cast<std::uint8_t>(c);
        for (std::size_t n = 0; n <= 97; n++) {
            for (std::size_t so = 0; so < 4; so++) {
                for (std::size_t doff = 0; doff < 4; doff++) {
                    std::vector<std::uint8_t> src(so + n);
                    std::vector<std::uint8_t> dst(doff + n + kGuard);
                    for (std::size_t i = 0; i < src.size(); i++)
                        src[i] = static_cast<std::uint8_t>(i * 37 + c + n);
                    for (std::size_t i = 0; i < dst.size(); i++)
                        dst[i] = static_cast<std::uint8_t>(i * 11 + 0x5a);
                    std::vector<std::uint8_t> want = dst;
                    for (std::size_t i = 0; i < n; i++)
                        want[doff + i] ^= gf256::mul(coef, src[so + i]);
                    gf256::mulAdd(dst.data() + doff, src.data() + so, coef,
                                  n);
                    ASSERT_EQ(dst, want) << "c=" << c << " n=" << n
                                         << " src+" << so << " dst+"
                                         << doff;
                }
            }
        }
    }
}

} // namespace
} // namespace oceanstore
