/** @file Naming tests: directories and self-certifying paths. */

#include <gtest/gtest.h>

#include "naming/resolver.h"

namespace oceanstore {
namespace {

TEST(Directory, BindLookupUnbind)
{
    Directory d;
    Guid g = Guid::hashOf("target");
    d.bind("file.txt", {g, EntryKind::Object});
    auto e = d.lookup("file.txt");
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->target, g);
    EXPECT_EQ(e->kind, EntryKind::Object);
    EXPECT_TRUE(d.unbind("file.txt"));
    EXPECT_FALSE(d.lookup("file.txt").has_value());
    EXPECT_FALSE(d.unbind("file.txt"));
}

TEST(Directory, SerializationRoundTrip)
{
    Directory d;
    d.bind("a", {Guid::hashOf("a"), EntryKind::Object});
    d.bind("subdir", {Guid::hashOf("s"), EntryKind::Directory});
    d.bind("z", {Guid::hashOf("z"), EntryKind::Object});

    Directory parsed = Directory::deserialize(d.serialize()).value();
    EXPECT_EQ(parsed.entries().size(), 3u);
    EXPECT_EQ(parsed.lookup("subdir")->kind, EntryKind::Directory);
    EXPECT_EQ(parsed.lookup("a")->target, Guid::hashOf("a"));
}

TEST(Directory, CanonicalSerialization)
{
    // Same logical content, different insertion order, same bytes —
    // required for content-addressed hashing.
    Directory d1, d2;
    d1.bind("x", {Guid::hashOf("x"), EntryKind::Object});
    d1.bind("y", {Guid::hashOf("y"), EntryKind::Object});
    d2.bind("y", {Guid::hashOf("y"), EntryKind::Object});
    d2.bind("x", {Guid::hashOf("x"), EntryKind::Object});
    EXPECT_EQ(d1.serialize(), d2.serialize());
}

TEST(Directory, MalformedPayloadRejected)
{
    EXPECT_FALSE(Directory::deserialize(Bytes{1, 2, 3}).has_value());
    // Trailing garbage also rejected.
    Directory d;
    Bytes ok = d.serialize();
    ok.push_back(0);
    EXPECT_FALSE(Directory::deserialize(ok).has_value());
}

/** A resolver backed by an in-memory map of directory payloads. */
struct ResolverFixture : public ::testing::Test
{
    ResolverFixture()
        : resolver([this](const Guid &g) -> std::optional<Bytes> {
              auto it = store.find(g);
              if (it == store.end())
                  return std::nullopt;
              return it->second;
          })
    {
        // Build: root -> docs/ -> paper.txt ; root -> readme
        Directory docs;
        docs.bind("paper.txt",
                  {Guid::hashOf("paper"), EntryKind::Object});
        Guid docs_guid = Guid::hashOf("docs-dir");
        store[docs_guid] = docs.serialize();

        Directory root;
        root.bind("docs", {docs_guid, EntryKind::Directory});
        root.bind("readme", {Guid::hashOf("readme"), EntryKind::Object});
        Guid root_guid = Guid::hashOf("root-dir");
        store[root_guid] = root.serialize();

        resolver.addRoot("home", root_guid);
    }

    std::map<Guid, Bytes> store;
    NameResolver resolver;
};

TEST_F(ResolverFixture, ResolvesNestedPath)
{
    auto res = resolver.resolve("home:/docs/paper.txt");
    ASSERT_TRUE(res.found);
    EXPECT_EQ(res.target, Guid::hashOf("paper"));
    EXPECT_EQ(res.kind, EntryKind::Object);
    EXPECT_EQ(res.directoriesTraversed, 2u);
}

TEST_F(ResolverFixture, ResolvesTopLevelEntry)
{
    auto res = resolver.resolve("home:/readme");
    ASSERT_TRUE(res.found);
    EXPECT_EQ(res.target, Guid::hashOf("readme"));
}

TEST_F(ResolverFixture, RootItselfResolves)
{
    auto res = resolver.resolve("home:/");
    ASSERT_TRUE(res.found);
    EXPECT_EQ(res.kind, EntryKind::Directory);
}

TEST_F(ResolverFixture, UnknownRootFails)
{
    EXPECT_FALSE(resolver.resolve("work:/docs").found);
}

TEST_F(ResolverFixture, MissingComponentFails)
{
    EXPECT_FALSE(resolver.resolve("home:/docs/missing.txt").found);
    EXPECT_FALSE(resolver.resolve("home:/nodir/paper.txt").found);
}

TEST_F(ResolverFixture, DescendingThroughFileFails)
{
    EXPECT_FALSE(resolver.resolve("home:/readme/impossible").found);
}

TEST_F(ResolverFixture, NoColonFails)
{
    EXPECT_FALSE(resolver.resolve("just-a-name").found);
}

TEST_F(ResolverFixture, RootsAreLocal)
{
    // "Root directories are only roots with respect to the clients
    // that use them": a second resolver with different roots sees a
    // different namespace.
    NameResolver other([this](const Guid &g) -> std::optional<Bytes> {
        auto it = store.find(g);
        if (it == store.end())
            return std::nullopt;
        return it->second;
    });
    other.addRoot("home", Guid::hashOf("docs-dir"));
    auto res = other.resolve("home:/paper.txt");
    ASSERT_TRUE(res.found); // docs dir serves as this client's root
    EXPECT_FALSE(other.resolve("home:/docs/paper.txt").found);
}

TEST_F(ResolverFixture, RemoveRoot)
{
    resolver.removeRoot("home");
    EXPECT_FALSE(resolver.resolve("home:/readme").found);
    EXPECT_TRUE(resolver.roots().empty());
}

TEST(SelfCertifying, GuidBindsKeyAndName)
{
    Bytes key = toBytes("pubkey");
    Guid g = NameResolver::selfCertifyingGuid(key, "report");
    EXPECT_TRUE(NameResolver::verifyOwnership(g, key, "report"));
    EXPECT_FALSE(NameResolver::verifyOwnership(g, key, "other"));
    EXPECT_FALSE(
        NameResolver::verifyOwnership(g, toBytes("attacker"), "report"));
}

} // namespace
} // namespace oceanstore
