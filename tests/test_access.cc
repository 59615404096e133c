/** @file Access control tests (Section 4.2). */

#include <gtest/gtest.h>

#include "access/acl.h"
#include "access/keydist.h"

namespace oceanstore {
namespace {

std::uint8_t
priv(Privilege p)
{
    return static_cast<std::uint8_t>(p);
}

TEST(Acl, GrantAndCheck)
{
    Acl acl;
    Bytes key = toBytes("writer-key");
    acl.grant(key, priv(Privilege::Write));
    EXPECT_TRUE(acl.allows(key, Privilege::Write));
    EXPECT_FALSE(acl.allows(key, Privilege::Read));
    EXPECT_FALSE(acl.allows(toBytes("other"), Privilege::Write));
}

TEST(Acl, OwnerImpliesEverything)
{
    Acl acl;
    Bytes key = toBytes("owner-key");
    acl.grant(key, priv(Privilege::Owner));
    EXPECT_TRUE(acl.allows(key, Privilege::Write));
    EXPECT_TRUE(acl.allows(key, Privilege::Read));
}

TEST(Acl, GrantsAccumulate)
{
    Acl acl;
    Bytes key = toBytes("k");
    acl.grant(key, priv(Privilege::Read));
    acl.grant(key, priv(Privilege::Write));
    EXPECT_TRUE(acl.allows(key, Privilege::Read));
    EXPECT_TRUE(acl.allows(key, Privilege::Write));
    EXPECT_EQ(acl.entries().size(), 1u); // merged, not duplicated
}

TEST(Acl, RevokeRemovesAll)
{
    Acl acl;
    Bytes key = toBytes("k");
    acl.grant(key, priv(Privilege::Write));
    EXPECT_TRUE(acl.revoke(key));
    EXPECT_FALSE(acl.allows(key, Privilege::Write));
    EXPECT_FALSE(acl.revoke(key));
}

TEST(Acl, SerializationRoundTrip)
{
    Acl acl;
    acl.grant(toBytes("a"), priv(Privilege::Read));
    acl.grant(toBytes("b"),
              priv(Privilege::Write) | priv(Privilege::Read));
    Acl parsed = Acl::deserialize(acl.serialize()).value();
    EXPECT_TRUE(parsed.allows(toBytes("b"), Privilege::Write));
    EXPECT_FALSE(parsed.allows(toBytes("a"), Privilege::Write));
}

TEST(AclCert, IssueAndVerify)
{
    KeyRegistry reg;
    KeyPair owner = reg.generate();
    Acl acl;
    acl.grant(owner.publicKey, priv(Privilege::Owner));
    Guid obj = Guid::forObject(owner.publicKey, "doc");
    AclCertificate cert = AclCertificate::issue(obj, acl, owner);
    EXPECT_TRUE(cert.verify(reg));
}

TEST(AclCert, ForgedCertificateFails)
{
    KeyRegistry reg;
    KeyPair owner = reg.generate();
    KeyPair attacker = reg.generate();
    Acl acl;
    Guid obj = Guid::forObject(owner.publicKey, "doc");
    AclCertificate cert = AclCertificate::issue(obj, acl, owner);
    cert.ownerPublicKey = attacker.publicKey; // claim someone else said it
    EXPECT_FALSE(cert.verify(reg));
}

struct GuardFixture : public ::testing::Test
{
    GuardFixture()
    {
        owner = reg.generate();
        writer = reg.generate();
        outsider = reg.generate();
        obj = Guid::forObject(owner.publicKey, "file");
        acl.grant(owner.publicKey, priv(Privilege::Owner));
        acl.grant(writer.publicKey, priv(Privilege::Write));
        guard.install(AclCertificate::issue(obj, acl, owner), acl, reg);
    }

    Bytes payload = toBytes("update-body");

    KeyRegistry reg;
    KeyPair owner, writer, outsider;
    Guid obj;
    Acl acl;
    WriteGuard guard;
};

TEST_F(GuardFixture, AuthorizedWriterAdmitted)
{
    Signature sig = KeyRegistry::sign(writer, payload);
    EXPECT_TRUE(
        guard.admits(obj, writer.publicKey, payload, sig, reg));
}

TEST_F(GuardFixture, OwnerAdmitted)
{
    Signature sig = KeyRegistry::sign(owner, payload);
    EXPECT_TRUE(guard.admits(obj, owner.publicKey, payload, sig, reg));
}

TEST_F(GuardFixture, OutsiderRejected)
{
    Signature sig = KeyRegistry::sign(outsider, payload);
    EXPECT_FALSE(
        guard.admits(obj, outsider.publicKey, payload, sig, reg));
}

TEST_F(GuardFixture, StolenKeyNameWithoutSignatureRejected)
{
    // Claiming the writer's public key but signing with another key.
    Signature sig = KeyRegistry::sign(outsider, payload);
    EXPECT_FALSE(
        guard.admits(obj, writer.publicKey, payload, sig, reg));
}

TEST_F(GuardFixture, UnknownObjectRejected)
{
    Signature sig = KeyRegistry::sign(owner, payload);
    EXPECT_FALSE(guard.admits(Guid::hashOf("other"), owner.publicKey,
                              payload, sig, reg));
}

TEST_F(GuardFixture, CertificateNamingWrongAclIgnored)
{
    // A certificate whose aclGuid does not hash the presented ACL
    // must not install.
    Acl other_acl;
    other_acl.grant(outsider.publicKey, priv(Privilege::Write));
    AclCertificate cert = AclCertificate::issue(obj, acl, owner);
    WriteGuard g2;
    g2.install(cert, other_acl, reg); // mismatched pair
    Signature sig = KeyRegistry::sign(outsider, payload);
    EXPECT_FALSE(
        g2.admits(obj, outsider.publicKey, payload, sig, reg));
}

TEST(KeyDist, AuthorizedReaderGetsKey)
{
    KeyDistributor kd;
    Guid obj = Guid::hashOf("o");
    Guid alice = Guid::hashOf("alice");
    kd.createKey(obj);
    kd.authorize(obj, alice);
    EXPECT_TRUE(kd.fetchKey(obj, alice).has_value());
    EXPECT_EQ(kd.epoch(obj), 1u);
}

TEST(KeyDist, UnauthorizedReaderDenied)
{
    KeyDistributor kd;
    Guid obj = Guid::hashOf("o");
    kd.createKey(obj);
    EXPECT_FALSE(kd.fetchKey(obj, Guid::hashOf("mallory")).has_value());
}

TEST(KeyDist, RevocationRotatesKey)
{
    KeyDistributor kd;
    Guid obj = Guid::hashOf("o");
    Guid alice = Guid::hashOf("alice");
    Guid bob = Guid::hashOf("bob");
    kd.createKey(obj);
    kd.authorize(obj, alice);
    kd.authorize(obj, bob);
    Bytes old_key = *kd.fetchKey(obj, alice);

    kd.revoke(obj, bob);
    EXPECT_EQ(kd.epoch(obj), 2u);
    EXPECT_FALSE(kd.fetchKey(obj, bob).has_value());
    // Remaining reader transparently gets the new key.
    Bytes new_key = *kd.fetchKey(obj, alice);
    EXPECT_NE(new_key, old_key);
}

TEST(KeyDist, ReencryptionMovesEpochs)
{
    KeyDistributor kd;
    Guid obj = Guid::hashOf("o");
    Guid alice = Guid::hashOf("alice");
    kd.createKey(obj);
    kd.authorize(obj, alice);
    Bytes old_key = kd.currentKey(obj);

    // Encrypt three blocks under the old key.
    BlockCipher oldc(old_key);
    std::vector<Bytes> cipher;
    std::vector<Bytes> plain = {toBytes("one"), toBytes("two"),
                                toBytes("three")};
    for (std::size_t i = 0; i < plain.size(); i++)
        cipher.push_back(oldc.encrypt(i, plain[i]));

    kd.revoke(obj, Guid::hashOf("nobody")); // rotation
    auto fresh = kd.reencryptBlocks(cipher, old_key, obj);

    BlockCipher newc(kd.currentKey(obj));
    for (std::size_t i = 0; i < plain.size(); i++) {
        EXPECT_NE(fresh[i], cipher[i]);
        EXPECT_EQ(newc.decrypt(i, fresh[i]), plain[i]);
    }
}

} // namespace
} // namespace oceanstore
