/** @file Search-on-ciphertext tests (Section 4.4.3). */

#include <gtest/gtest.h>

#include "crypto/searchable.h"

namespace oceanstore {
namespace {

TEST(Searchable, TokenizerBasics)
{
    auto words = tokenizeWords("Hello, World! hello again");
    ASSERT_EQ(words.size(), 4u);
    EXPECT_EQ(words[0], "hello");
    EXPECT_EQ(words[1], "world");
    EXPECT_EQ(words[2], "hello");
    EXPECT_EQ(words[3], "again");
}

TEST(Searchable, MatchPresentWord)
{
    SearchableCipher c(toBytes("search-key"));
    auto index = c.buildIndex("meet me at the cafe tomorrow");
    EXPECT_TRUE(SearchableCipher::match(index, c.trapdoor("cafe")));
    EXPECT_TRUE(SearchableCipher::match(index, c.trapdoor("meet")));
}

TEST(Searchable, NoMatchForAbsentWord)
{
    SearchableCipher c(toBytes("search-key"));
    auto index = c.buildIndex("meet me at the cafe tomorrow");
    EXPECT_FALSE(SearchableCipher::match(index, c.trapdoor("library")));
}

TEST(Searchable, MatchPositionsAreExact)
{
    SearchableCipher c(toBytes("k"));
    auto index = c.buildIndex("a b a c a");
    auto hits = SearchableCipher::matchPositions(index, c.trapdoor("a"));
    EXPECT_EQ(hits, (std::vector<std::size_t>{0, 2, 4}));
}

TEST(Searchable, CaseInsensitive)
{
    SearchableCipher c(toBytes("k"));
    auto index = c.buildIndex("Secret MEETING at Noon");
    EXPECT_TRUE(SearchableCipher::match(index, c.trapdoor("meeting")));
    EXPECT_TRUE(SearchableCipher::match(index, c.trapdoor("SECRET")));
}

TEST(Searchable, DifferentKeysCannotSearch)
{
    // A server (or attacker) without the key cannot fabricate a
    // working trapdoor: trapdoors from another key never match.
    SearchableCipher owner(toBytes("owner-key"));
    SearchableCipher attacker(toBytes("attacker-key"));
    auto index = owner.buildIndex("secret plans");
    EXPECT_FALSE(
        SearchableCipher::match(index, attacker.trapdoor("secret")));
}

TEST(Searchable, SameWordDifferentPositionsLooksUnrelated)
{
    // Until a search happens, two occurrences of a word are masked
    // differently (position mask), hiding the equality pattern.
    SearchableCipher c(toBytes("k"));
    auto index = c.buildIndex("dup dup");
    ASSERT_EQ(index.size(), 2u);
    EXPECT_NE(index.token(0), index.token(1));
}

TEST(Searchable, EmptyDocument)
{
    SearchableCipher c(toBytes("k"));
    auto index = c.buildIndex("");
    EXPECT_TRUE(index.maskedTokens.empty());
    EXPECT_FALSE(SearchableCipher::match(index, c.trapdoor("x")));
}

TEST(Searchable, ServerSideNeedsNoKey)
{
    // matchPositions is static: compiles and runs with only the index
    // and trapdoor, which is the architectural point.
    SearchableCipher c(toBytes("k"));
    auto index = c.buildIndex("alpha beta");
    auto trap = c.trapdoor("beta");
    EXPECT_EQ(SearchableCipher::matchPositions(index, trap),
              (std::vector<std::size_t>{1}));
}

} // namespace
} // namespace oceanstore
