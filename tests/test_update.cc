/** @file Update model serialization and semantics (Section 4.4.1). */

#include <gtest/gtest.h>

#include "consistency/update.h"
#include "crypto/keys.h"

namespace oceanstore {
namespace {

Update
sampleUpdate()
{
    Update u;
    u.objectGuid = Guid::hashOf("object");
    u.timestamp = {123456, 42};

    UpdateClause c1;
    c1.predicates.push_back(CompareVersion{7});
    c1.predicates.push_back(CompareSize{3});
    CompareBlock cb;
    cb.position = 1;
    cb.expected = Sha1::hash("block");
    c1.predicates.push_back(cb);
    SearchPredicate sp;
    sp.trapdoor.wordToken = Sha1::hash("word");
    sp.expectPresent = false;
    c1.predicates.push_back(sp);
    c1.actions.push_back(ReplaceBlock{0, toBytes("new-cipher")});
    c1.actions.push_back(AppendBlock{toBytes("tail")});

    UpdateClause c2;
    c2.actions.push_back(InsertBlock{2, toBytes("mid")});
    c2.actions.push_back(DeleteBlock{5});
    SetSearchIndex ssi;
    const Sha1Digest ta = Sha1::hash("a"), tb = Sha1::hash("b");
    Bytes tokens(ta.begin(), ta.end());
    tokens.insert(tokens.end(), tb.begin(), tb.end());
    ssi.index.maskedTokens = tokens;
    c2.actions.push_back(ssi);

    u.clauses = {c1, c2};
    u.writerPublicKey = toBytes("writer-pub");
    return u;
}

TEST(Update, SerializationIsDeterministic)
{
    Update u = sampleUpdate();
    EXPECT_EQ(u.serializeForSigning(), u.serializeForSigning());
    EXPECT_EQ(u.id(), u.id());
}

TEST(Update, IdChangesWithContent)
{
    Update a = sampleUpdate();
    Update b = sampleUpdate();
    b.timestamp.time++;
    EXPECT_NE(a.id(), b.id());
}

TEST(Update, FullRoundTrip)
{
    KeyRegistry reg;
    KeyPair kp = reg.generate();
    Update u = sampleUpdate();
    u.writerPublicKey = kp.publicKey;
    u.signature = KeyRegistry::sign(kp, u.serializeForSigning());

    Update parsed = Update::deserializeFull(u.serializeFull()).value();
    EXPECT_EQ(parsed.objectGuid, u.objectGuid);
    EXPECT_EQ(parsed.timestamp, u.timestamp);
    EXPECT_EQ(parsed.writerPublicKey, u.writerPublicKey);
    EXPECT_EQ(parsed.signature, u.signature);
    ASSERT_EQ(parsed.clauses.size(), 2u);
    EXPECT_EQ(parsed.clauses[0].predicates.size(), 4u);
    EXPECT_EQ(parsed.clauses[0].actions.size(), 2u);
    EXPECT_EQ(parsed.clauses[1].actions.size(), 3u);

    // Identical serialization implies identical id and signature
    // verification on the receiving server.
    EXPECT_EQ(parsed.id(), u.id());
    EXPECT_TRUE(reg.verify(parsed.writerPublicKey,
                           parsed.serializeForSigning(),
                           parsed.signature));
}

TEST(Update, ParsedPredicatesSurviveStructurally)
{
    Update parsed =
        Update::deserializeFull(sampleUpdate().serializeFull()).value();
    const auto &preds = parsed.clauses[0].predicates;
    EXPECT_EQ(std::get<CompareVersion>(preds[0]).expected, 7u);
    EXPECT_EQ(std::get<CompareSize>(preds[1]).expectedBlocks, 3u);
    EXPECT_EQ(std::get<CompareBlock>(preds[2]).position, 1u);
    EXPECT_FALSE(std::get<SearchPredicate>(preds[3]).expectPresent);
}

TEST(Update, ParsedActionsSurviveStructurally)
{
    Update parsed =
        Update::deserializeFull(sampleUpdate().serializeFull()).value();
    const auto &a1 = parsed.clauses[0].actions;
    EXPECT_EQ(std::get<ReplaceBlock>(a1[0]).ciphertext,
              toBytes("new-cipher"));
    EXPECT_EQ(std::get<AppendBlock>(a1[1]).ciphertext, toBytes("tail"));
    const auto &a2 = parsed.clauses[1].actions;
    EXPECT_EQ(std::get<InsertBlock>(a2[0]).position, 2u);
    EXPECT_EQ(std::get<DeleteBlock>(a2[1]).position, 5u);
    EXPECT_EQ(std::get<SetSearchIndex>(a2[2]).index.size(), 2u);
}

TEST(Update, WireSizeTracksPayload)
{
    Update small = sampleUpdate();
    Update big = sampleUpdate();
    std::get<ReplaceBlock>(big.clauses[0].actions[0]).ciphertext =
        Bytes(10000, 0xaa);
    EXPECT_GT(big.wireSize(), small.wireSize() + 9000);
}

TEST(Update, MalformedWireRejected)
{
    EXPECT_FALSE(Update::deserializeFull(Bytes{1, 2, 3}).has_value());
}

/** A full wire update whose signed body is @p body and whose
 *  signature is empty. */
Bytes
wireWithBody(const Bytes &body)
{
    ByteWriter w;
    w.putBlob(body);
    w.putBlob(Bytes{});
    return w.take();
}

/** The signed-body header: object GUID and timestamp. */
void
putHeader(ByteWriter &w)
{
    w.putRaw(Guid::hashOf("object").toBytes());
    w.putU64(1);
    w.putU64(2);
}

TEST(UpdateDecode, CountInflationRejected)
{
    // 48 bytes whose clause count claims 2^30 clauses: sizing the
    // clause vector from it would ask for tens of GiB.
    ByteWriter clauses;
    putHeader(clauses);
    clauses.putU32(0x40000000u);
    const Bytes inflated = wireWithBody(clauses.take());
    ASSERT_EQ(inflated.size(), 48u);
    EXPECT_FALSE(Update::deserializeFull(inflated).has_value());

    // One clause whose set-search-index action claims 2^28 tokens.
    ByteWriter tokens;
    putHeader(tokens);
    tokens.putU32(1); // clauses
    tokens.putU32(0); // predicates
    tokens.putU32(1); // actions
    tokens.putU8(4);  // SetSearchIndex
    tokens.putU32(0x10000000u);
    EXPECT_FALSE(
        Update::deserializeFull(wireWithBody(tokens.take())).has_value());

    // Counts that the bytes do back still decode.
    Update u;
    u.objectGuid = Guid::hashOf("object");
    u.clauses.resize(3);
    SetSearchIndex ssi;
    const Sha1Digest ta = Sha1::hash("a"), tb = Sha1::hash("b");
    Bytes both(ta.begin(), ta.end());
    both.insert(both.end(), tb.begin(), tb.end());
    ssi.index.maskedTokens = both;
    u.clauses[2].actions.push_back(ssi);
    const Update back = Update::deserializeFull(u.serializeFull()).value();
    ASSERT_EQ(back.clauses.size(), 3u);
    EXPECT_EQ(back.serializeFull(), u.serializeFull());
}

TEST(Update, TimestampOrdering)
{
    Timestamp a{10, 1}, b{10, 2}, c{11, 0};
    EXPECT_LT(a, b);
    EXPECT_LT(b, c);
    EXPECT_EQ(a, (Timestamp{10, 1}));
}

} // namespace
} // namespace oceanstore
