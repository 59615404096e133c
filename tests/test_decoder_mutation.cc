/**
 * @file Seeded mutation harness over every decoder of outside bytes
 * (DESIGN.md section 8).
 *
 * Each decoder gets valid seed encodings and every mutant of them:
 * each single bit flipped, each strict prefix, a 16- or 32-bit count
 * or length inflated at every offset, splices of two seeds, and
 * random bytes.  The invariants, checked under ASan+UBSan in CI:
 *  - decoding returns (no throw, no crash, no undefined behaviour);
 *  - each valid seed round-trips: encode(decode(encode(x))) ==
 *    encode(x);
 *  - every accepted mutant b is a value: encode(decode(b)) decodes,
 *    and to the same value (the same encoding again).
 */

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "access/acl.h"
#include "consistency/byzantine.h"
#include "consistency/update.h"
#include "core/versioning.h"
#include "erasure/fragment.h"
#include "erasure/reed_solomon.h"
#include "naming/directory.h"
#include "runtime/framing.h"
#include "util/random.h"

namespace oceanstore {
namespace {

/** What one harness run saw. */
struct MutationStats
{
    std::size_t mutants = 0;
    std::size_t accepted = 0;
};

/** Call @p visit with every mutant of @p seeds (see the file comment). */
void
forEachMutant(const std::vector<Bytes> &seeds, Rng &rng,
              const std::function<void(const Bytes &, const char *)> &visit)
{
    for (const Bytes &s : seeds) {
        for (std::size_t bit = 0; bit < 8 * s.size(); bit++) {
            Bytes b = s;
            b[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
            visit(b, "bit flip");
        }
        for (std::size_t len = 0; len < s.size(); len++)
            visit(Bytes(s.begin(), s.begin() + len), "truncation");
        for (std::size_t at = 0; at + 2 <= s.size(); at++) {
            const std::uint32_t left =
                static_cast<std::uint32_t>(s.size() - at);
            for (std::uint32_t v : {0xffffffffu, 0x80000000u, 0x10000000u,
                                    left, left + 1}) {
                if (at + 4 <= s.size()) {
                    Bytes b = s;
                    for (int i = 0; i < 4; i++)
                        b[at + i] = static_cast<std::uint8_t>(
                            v >> (24 - 8 * i));
                    visit(b, "32-bit inflation");
                }
                Bytes b = s;
                b[at] = static_cast<std::uint8_t>(v >> 8);
                b[at + 1] = static_cast<std::uint8_t>(v);
                visit(b, "16-bit inflation");
            }
        }
    }
    for (const Bytes &a : seeds) {
        for (const Bytes &b : seeds) {
            for (int k = 0; k < 64; k++) {
                const std::size_t i = rng.below(a.size() + 1);
                const std::size_t j = rng.below(b.size() + 1);
                Bytes spliced(a.begin(), a.begin() + i);
                spliced.insert(spliced.end(), b.begin() + j, b.end());
                visit(spliced, "splice");
            }
        }
    }
    for (int k = 0; k < 256; k++) {
        Bytes b(rng.below(96));
        for (auto &x : b)
            x = static_cast<std::uint8_t>(rng.next());
        visit(b, "random bytes");
    }
}

/**
 * Run the harness over one decoder.  @p prefixes_rejected says every
 * strict prefix of a seed must be rejected (true of each binary
 * encoding here; a prefix of a hex string can be valid hex).
 */
template <typename Decode, typename Encode>
MutationStats
runHarness(const std::vector<Bytes> &seeds, Decode decode, Encode encode,
           bool prefixes_rejected, std::uint64_t seed)
{
    MutationStats st;
    for (const Bytes &s : seeds) {
        auto v = decode(s);
        if (!v) {
            ADD_FAILURE() << "valid seed rejected";
            continue;
        }
        EXPECT_EQ(encode(*v), s) << "valid seed does not round-trip";
    }
    Rng rng(seed);
    forEachMutant(seeds, rng, [&](const Bytes &b, const char *kind) {
        st.mutants++;
        auto v = decode(b);
        if (!v)
            return;
        if (prefixes_rejected && std::string(kind) == "truncation")
            ADD_FAILURE() << "a strict prefix of a seed decoded";
        st.accepted++;
        const Bytes e = encode(*v);
        auto again = decode(e);
        if (!again) {
            ADD_FAILURE() << kind << ": re-encoding does not decode";
            return;
        }
        if (encode(*again) != e)
            ADD_FAILURE() << kind << ": re-encoding decodes to another value";
    });
    EXPECT_GT(st.mutants, st.accepted) << "nothing was rejected";
    return st;
}

Update
everyKindUpdate()
{
    Update u;
    u.objectGuid = Guid::hashOf("mutation-object");
    u.timestamp = {7, 3};
    UpdateClause c1;
    c1.predicates.push_back(CompareVersion{4});
    c1.predicates.push_back(CompareSize{2});
    CompareBlock cb;
    cb.position = 1;
    cb.expected = Sha1::hash("block");
    c1.predicates.push_back(cb);
    SearchPredicate sp;
    sp.trapdoor.wordToken = Sha1::hash("word");
    sp.expectPresent = false;
    c1.predicates.push_back(sp);
    c1.actions.push_back(ReplaceBlock{0, Bytes{1, 2, 3}});
    c1.actions.push_back(InsertBlock{1, Bytes{4}});
    c1.actions.push_back(DeleteBlock{2});
    c1.actions.push_back(AppendBlock{Bytes{5, 6}});
    SetSearchIndex ssi;
    const Sha1Digest t = Sha1::hash("token");
    ssi.index.maskedTokens = Bytes(t.begin(), t.end());
    c1.actions.push_back(ssi);
    u.clauses.push_back(c1);
    u.clauses.push_back(UpdateClause{});
    u.writerPublicKey = toBytes("writer-key");
    u.signature.bytes = toBytes("sig");
    return u;
}

TEST(DecoderMutation, Update)
{
    Update empty;
    std::vector<Bytes> seeds = {everyKindUpdate().serializeFull(),
                                empty.serializeFull()};
    auto st = runHarness(
        seeds, [](const Bytes &b) { return Update::deserializeFull(b); },
        [](const Update &u) { return u.serializeFull(); }, true, 1);
    EXPECT_GT(st.accepted, 0u);
}

TEST(DecoderMutation, Directory)
{
    Directory one, three;
    one.bind("a", {Guid::hashOf("a"), EntryKind::Object});
    three.bind("docs", {Guid::hashOf("d"), EntryKind::Directory});
    three.bind("x", {Guid::hashOf("x"), EntryKind::Object});
    three.bind("", {Guid::hashOf("e"), EntryKind::Object});
    std::vector<Bytes> seeds = {Directory().serialize(), one.serialize(),
                                three.serialize()};
    runHarness(
        seeds, [](const Bytes &b) { return Directory::deserialize(b); },
        [](const Directory &d) { return d.serialize(); }, true, 2);
}

TEST(DecoderMutation, Acl)
{
    Acl acl;
    acl.grant(toBytes("reader"), 1);
    acl.grant(toBytes("writer-key"), 3);
    std::vector<Bytes> seeds = {Acl().serialize(), acl.serialize()};
    runHarness(
        seeds, [](const Bytes &b) { return Acl::deserialize(b); },
        [](const Acl &a) { return a.serialize(); }, true, 3);
}

TEST(DecoderMutation, Fragment)
{
    ReedSolomonCode codec(4, 8);
    FragmentSet set = fragmentObject(codec, toBytes("mutation payload!"));
    std::vector<Bytes> seeds = {set.fragments[0].serialize(),
                                set.fragments[5].serialize()};
    runHarness(
        seeds, [](const Bytes &b) { return Fragment::deserialize(b); },
        [](const Fragment &f) { return f.serialize(); }, true, 4);
}

Message
frameMessage(const FrameHeader &h)
{
    Message m;
    m.type = h.type;
    m.src = h.src;
    m.nonce = h.nonce;
    m.destGuid = h.destGuid;
    m.wireSize = h.payloadLen;
    return m;
}

TEST(DecoderMutation, Frame)
{
    FrameHeader a;
    a.type = "pbft.prepare";
    a.src = 5;
    a.nonce = 0xabcdef0123456789ull;
    a.destGuid = Guid::hashOf("frame-target");
    a.payloadLen = 96;
    FrameHeader b;
    std::vector<Bytes> seeds = {encodeFrame(frameMessage(a)),
                                encodeFrame(frameMessage(b))};
    runHarness(
        seeds, [](const Bytes &f) { return decodeFrame(f); },
        [](const FrameHeader &h) { return encodeFrame(frameMessage(h)); },
        true, 5);
}

TEST(DecoderMutation, HexDecode)
{
    std::vector<Bytes> seeds = {toBytes(""), toBytes("00ff"),
                                toBytes(hexEncode(toBytes("hex seed")))};
    runHarness(
        seeds, [](const Bytes &b) { return hexDecode(toString(b)); },
        [](const Bytes &v) { return toBytes(hexEncode(v)); }, false, 6);
}

TEST(DecoderMutation, GuidFromHex)
{
    std::vector<Bytes> seeds = {toBytes(Guid::hashOf("g").hex()),
                                toBytes(Guid().hex())};
    runHarness(
        seeds, [](const Bytes &b) { return Guid::fromHex(toString(b)); },
        [](const Guid &g) { return toBytes(g.hex()); }, true, 7);
}

TEST(DecoderMutation, VersionedName)
{
    const Guid g = Guid::hashOf("versioned");
    std::vector<Bytes> seeds = {toBytes(g.hex()), toBytes(g.hex() + "@42"),
                                toBytes(g.hex() + "@0")};
    runHarness(
        seeds,
        [](const Bytes &b) { return VersionedName::parse(toString(b)); },
        [](const VersionedName &v) { return toBytes(v.toString()); }, false,
        8);
}

TEST(DecoderMutation, GuidKey)
{
    auto encode = [](const std::pair<Guid, std::uint32_t> &k) {
        return toBytes(guidKey("frag/", k.first, k.second));
    };
    std::vector<Bytes> seeds = {encode({Guid::hashOf("k"), 0}),
                                encode({Guid::hashOf("k"), 4294967295u})};
    runHarness(
        seeds,
        [](const Bytes &b) { return parseGuidKey(toString(b), "frag/"); },
        encode, false, 9);
}

TEST(DecoderMutation, UpdateLogKey)
{
    auto encode = [](std::uint64_t seq) { return toBytes(updateLogKey(seq)); };
    std::vector<Bytes> seeds = {encode(0), encode(42),
                                encode(18446744073709551615u)};
    runHarness(
        seeds,
        [](const Bytes &b) { return parseUpdateLogKey(toString(b)); },
        encode, true, 10);
}

} // namespace
} // namespace oceanstore
