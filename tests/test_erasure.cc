/** @file Erasure-coding tests (Section 4.5). */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "crypto/sha1.h"
#include "erasure/fragment.h"
#include "erasure/reed_solomon.h"
#include "erasure/tornado.h"
#include "util/random.h"

namespace oceanstore {
namespace {

Bytes
randomData(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    Bytes b(n);
    for (auto &x : b)
        x = static_cast<std::uint8_t>(rng.next());
    return b;
}

TEST(ReedSolomon, AllDataFragmentsDecodeTrivially)
{
    ReedSolomonCode code(4, 8);
    Bytes data = randomData(1000, 1);
    auto frags = code.encode(data);
    ASSERT_EQ(frags.size(), 8u);

    std::vector<std::optional<Bytes>> slots(8);
    for (int i = 0; i < 4; i++)
        slots[i] = frags[i];
    auto out = code.decode(slots, data.size());
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, data);
}

TEST(ReedSolomon, AnyKSubsetDecodes)
{
    // The paper's defining property: ANY n of the coded fragments
    // suffice.  Exhaustively check every 3-subset of 6 fragments.
    ReedSolomonCode code(3, 6);
    Bytes data = randomData(500, 2);
    auto frags = code.encode(data);

    for (unsigned a = 0; a < 6; a++) {
        for (unsigned b = a + 1; b < 6; b++) {
            for (unsigned c = b + 1; c < 6; c++) {
                std::vector<std::optional<Bytes>> slots(6);
                slots[a] = frags[a];
                slots[b] = frags[b];
                slots[c] = frags[c];
                auto out = code.decode(slots, data.size());
                ASSERT_TRUE(out.has_value())
                    << a << "," << b << "," << c;
                EXPECT_EQ(*out, data);
            }
        }
    }
}

TEST(ReedSolomon, TooFewFragmentsFails)
{
    ReedSolomonCode code(4, 8);
    Bytes data = randomData(256, 3);
    auto frags = code.encode(data);
    std::vector<std::optional<Bytes>> slots(8);
    slots[5] = frags[5];
    slots[6] = frags[6];
    slots[7] = frags[7];
    EXPECT_FALSE(code.decode(slots, data.size()).has_value());
}

TEST(ReedSolomon, PaperGeometry16of32)
{
    // Section 4.5's example: rate-1/2 coding into 32 fragments, any
    // 16 reconstruct.
    ReedSolomonCode code(16, 32);
    Bytes data = randomData(4096, 4);
    auto frags = code.encode(data);

    Rng rng(5);
    for (int trial = 0; trial < 5; trial++) {
        auto keep = rng.sampleIndices(32, 16);
        std::vector<std::optional<Bytes>> slots(32);
        for (auto i : keep)
            slots[i] = frags[i];
        auto out = code.decode(slots, data.size());
        ASSERT_TRUE(out.has_value());
        EXPECT_EQ(*out, data);
    }
}

TEST(ReedSolomon, TinyAndEmptyObjects)
{
    ReedSolomonCode code(4, 8);
    for (std::size_t n : {0u, 1u, 3u, 4u, 5u}) {
        Bytes data = randomData(n, 6 + n);
        auto frags = code.encode(data);
        std::vector<std::optional<Bytes>> slots(8);
        for (int i = 4; i < 8; i++) // parity-only decode
            slots[i] = frags[i];
        auto out = code.decode(slots, data.size());
        ASSERT_TRUE(out.has_value()) << "size " << n;
        EXPECT_EQ(*out, data);
    }
}

TEST(ReedSolomon, RejectsBadGeometry)
{
    EXPECT_THROW(ReedSolomonCode(0, 4), std::runtime_error);
    EXPECT_THROW(ReedSolomonCode(4, 4), std::runtime_error);
    EXPECT_THROW(ReedSolomonCode(200, 300), std::runtime_error);
}

TEST(ReedSolomon, RateReported)
{
    ReedSolomonCode code(16, 32);
    EXPECT_DOUBLE_EQ(code.rate(), 0.5);
    EXPECT_EQ(code.name(), "reed-solomon(16/32)");
}

TEST(Tornado, DecodesWithAllDataFragments)
{
    TornadoCode code(8, 16);
    Bytes data = randomData(2048, 7);
    auto frags = code.encode(data);
    std::vector<std::optional<Bytes>> slots(16);
    for (int i = 0; i < 8; i++)
        slots[i] = frags[i];
    auto out = code.decode(slots, data.size());
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, data);
}

TEST(Tornado, RecoversSingleLossAlways)
{
    TornadoCode code(8, 16);
    Bytes data = randomData(512, 8);
    auto frags = code.encode(data);
    for (unsigned lost = 0; lost < 8; lost++) {
        std::vector<std::optional<Bytes>> slots(16);
        for (unsigned i = 0; i < 16; i++) {
            if (i != lost)
                slots[i] = frags[i];
        }
        auto out = code.decode(slots, data.size());
        ASSERT_TRUE(out.has_value()) << "lost " << lost;
        EXPECT_EQ(*out, data);
    }
}

TEST(Tornado, NeedsSlightlyMoreThanK)
{
    // Footnote 12: Tornado codes require slightly more than n
    // fragments.  With exactly k random fragments, decoding sometimes
    // fails; with k + 25% it almost always succeeds.
    TornadoCode code(16, 48);
    Bytes data = randomData(4096, 9);
    auto frags = code.encode(data);
    Rng rng(10);

    const int trials = 40;
    auto success_rate = [&](unsigned keep_count) {
        int ok = 0;
        for (int t = 0; t < trials; t++) {
            auto keep = rng.sampleIndices(48, keep_count);
            std::vector<std::optional<Bytes>> slots(48);
            for (auto i : keep)
                slots[i] = frags[i];
            if (code.decode(slots, data.size()).has_value())
                ok++;
        }
        return ok;
    };

    int at_k = success_rate(16);       // exactly n fragments
    int at_2k = success_rate(32);      // 2n fragments
    EXPECT_LT(at_k, trials / 4);       // n alone is rarely enough
    EXPECT_GT(at_2k, trials * 3 / 4);  // slightly more almost always is
    EXPECT_GT(at_2k, at_k);
}

TEST(Tornado, GraphIsDeterministicPerSeed)
{
    TornadoCode a(8, 16, 99), b(8, 16, 99), c(8, 16, 100);
    EXPECT_EQ(a.graph(), b.graph());
    EXPECT_NE(a.graph(), c.graph());
}

TEST(Tornado, EveryDataFragmentCovered)
{
    TornadoCode code(32, 64);
    std::vector<bool> covered(32, false);
    for (const auto &nb : code.graph()) {
        for (unsigned j : nb)
            covered[j] = true;
    }
    for (unsigned j = 0; j < 32; j++)
        EXPECT_TRUE(covered[j]) << "fragment " << j << " uncovered";
}

TEST(Fragments, SelfVerifyingRoundTrip)
{
    ReedSolomonCode code(4, 8);
    Bytes data = randomData(1024, 11);
    FragmentSet set = fragmentObject(code, data);
    ASSERT_EQ(set.fragments.size(), 8u);
    EXPECT_TRUE(set.archiveGuid.valid());
    for (const auto &f : set.fragments)
        EXPECT_TRUE(f.verify());
}

TEST(Fragments, CorruptFragmentDetected)
{
    ReedSolomonCode code(4, 8);
    FragmentSet set = fragmentObject(code, randomData(512, 12));
    set.fragments[3].data = withByteFlipped(set.fragments[3].data, 0, 1);
    EXPECT_FALSE(set.fragments[3].verify());
}

TEST(Fragments, ReassembleIgnoresCorruptAndForeign)
{
    ReedSolomonCode code(4, 8);
    Bytes data = randomData(777, 13);
    FragmentSet set = fragmentObject(code, data);

    // Corrupt two fragments (erasures), drop two more; 4 good remain.
    set.fragments[0].data = withByteFlipped(set.fragments[0].data, 0, 0xff);
    set.fragments[1].data = withByteFlipped(set.fragments[1].data, 5, 0x01);
    std::vector<Fragment> available = {
        set.fragments[0], set.fragments[1], set.fragments[2],
        set.fragments[3], set.fragments[4], set.fragments[5]};
    auto out = reassembleObject(code, set.archiveGuid, data.size(),
                                available);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, data);
}

TEST(Fragments, ReassembleFailsBelowThreshold)
{
    ReedSolomonCode code(4, 8);
    Bytes data = randomData(300, 14);
    FragmentSet set = fragmentObject(code, data);
    std::vector<Fragment> available(set.fragments.begin(),
                                    set.fragments.begin() + 3);
    EXPECT_FALSE(reassembleObject(code, set.archiveGuid, data.size(),
                                  available)
                     .has_value());
}

/** SHA-1 over all fragments in order: one known answer per code. */
std::string
fragmentsDigest(const std::vector<Bytes> &frags)
{
    Sha1 h;
    for (const auto &f : frags)
        h.update(f);
    return digestToHex(h.finish());
}

/**
 * Known-answer check for one geometry: fragment digest and archive
 * GUID (recorded from the reference log/exp field kernels), then
 * decodes with the listed fragments lost.
 */
void
checkKnownAnswer(unsigned k, unsigned t, const std::string &frag_hex,
                 const std::string &guid_hex,
                 const std::vector<std::vector<unsigned>> &loss_patterns)
{
    ReedSolomonCode code(k, t);
    Bytes data = randomData(100003, 21); // not a multiple of k
    auto frags = code.encode(data);
    ASSERT_EQ(frags.size(), t);
    EXPECT_EQ(fragmentsDigest(frags), frag_hex);
    EXPECT_EQ(fragmentObject(code, data).archiveGuid.hex(), guid_hex);
    for (const auto &lost : loss_patterns) {
        std::vector<std::optional<Bytes>> slots(frags.begin(), frags.end());
        for (unsigned i : lost)
            slots[i].reset();
        auto out = code.decode(slots, data.size());
        ASSERT_TRUE(out.has_value()) << "lost " << lost.size();
        EXPECT_EQ(*out, data) << "lost " << lost.size();
    }
}

TEST(ReedSolomon, KnownAnswerFragments16of32)
{
    std::vector<unsigned> all_data(16);
    for (unsigned i = 0; i < 16; i++)
        all_data[i] = i;
    checkKnownAnswer(16, 32, "78dae6cdd5ed98c8120ecd4c1e0749521d131569",
                     "7b81e8fe49475d056db09b12a3217ae2335afcbc",
                     {{0}, {3, 7, 15}, {1, 2, 5, 8, 13, 20, 31}, all_data});
}

TEST(ReedSolomon, KnownAnswerFragments4of13)
{
    checkKnownAnswer(4, 13, "9efa39c1570b9b499aa54855e434332d72a6ac1f",
                     "e1027f6d3868a2093a79c72480ca192562b03ea4",
                     {{2}, {0, 3}, {0, 1, 2, 3}, {1, 4, 5, 6, 7, 8, 9}});
}

TEST(Fragments, ArchiveGuidIsContentAddressed)
{
    ReedSolomonCode code(4, 8);
    Bytes d1 = randomData(256, 15);
    Bytes d2 = d1;
    d2[0] ^= 1;
    EXPECT_EQ(fragmentObject(code, d1).archiveGuid,
              fragmentObject(code, d1).archiveGuid);
    EXPECT_NE(fragmentObject(code, d1).archiveGuid,
              fragmentObject(code, d2).archiveGuid);
}

} // namespace
} // namespace oceanstore
