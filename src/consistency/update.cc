#include "consistency/update.h"

namespace oceanstore {

void
serializePredicate(ByteWriter &w, const Predicate &p)
{
    std::visit(
        [&](const auto &v) {
            using T = std::decay_t<decltype(v)>;
            if constexpr (std::is_same_v<T, CompareVersion>) {
                w.putU8(0);
                w.putU64(v.expected);
            } else if constexpr (std::is_same_v<T, CompareSize>) {
                w.putU8(1);
                w.putU64(v.expectedBlocks);
            } else if constexpr (std::is_same_v<T, CompareBlock>) {
                w.putU8(2);
                w.putU64(v.position);
                w.putRaw(v.expected.data(), v.expected.size());
            } else if constexpr (std::is_same_v<T, SearchPredicate>) {
                w.putU8(3);
                w.putRaw(v.trapdoor.wordToken.data(),
                         v.trapdoor.wordToken.size());
                w.putU8(v.expectPresent ? 1 : 0);
            }
        },
        p);
}

void
serializeAction(ByteWriter &w, const Action &a)
{
    std::visit(
        [&](const auto &v) {
            using T = std::decay_t<decltype(v)>;
            if constexpr (std::is_same_v<T, ReplaceBlock>) {
                w.putU8(0);
                w.putU64(v.position);
                w.putBlob(v.ciphertext);
            } else if constexpr (std::is_same_v<T, InsertBlock>) {
                w.putU8(1);
                w.putU64(v.position);
                w.putBlob(v.ciphertext);
            } else if constexpr (std::is_same_v<T, DeleteBlock>) {
                w.putU8(2);
                w.putU64(v.position);
            } else if constexpr (std::is_same_v<T, AppendBlock>) {
                w.putU8(3);
                w.putBlob(v.ciphertext);
            } else if constexpr (std::is_same_v<T, SetSearchIndex>) {
                w.putU8(4);
                w.putU32(static_cast<std::uint32_t>(v.index.size()));
                w.putRaw(v.index.maskedTokens);
            }
        },
        a);
}

Bytes
Update::serializeForSigning() const
{
    ByteWriter w;
    w.putRaw(objectGuid.toBytes());
    w.putU64(timestamp.time);
    w.putU64(timestamp.clientId);
    w.putU32(static_cast<std::uint32_t>(clauses.size()));
    for (const auto &clause : clauses) {
        w.putU32(static_cast<std::uint32_t>(clause.predicates.size()));
        for (const auto &p : clause.predicates)
            serializePredicate(w, p);
        w.putU32(static_cast<std::uint32_t>(clause.actions.size()));
        for (const auto &a : clause.actions)
            serializeAction(w, a);
    }
    w.putBlob(writerPublicKey);
    Bytes out = w.take();
    // Store only a change: a shared update's warm memo is never written.
    if (cachedSignedSize_ != out.size())
        cachedSignedSize_ = out.size();
    return out;
}

Guid
Update::id() const
{
    if (!idCached_) {
        cachedId_ = Guid::hashOf(serializeForSigning());
        idCached_ = true;
    }
    return cachedId_;
}

Bytes
Update::serializeFull() const
{
    ByteWriter w;
    w.putBlob(serializeForSigning());
    w.putBlob(signature.bytes);
    return w.take();
}

namespace {

/** Encoded bytes of the smallest predicate (a version or size test). */
constexpr std::size_t minPredicateBytes = 1 + 8;

/** Encoded bytes of the smallest action (an append's empty blob). */
constexpr std::size_t minActionBytes = 1 + 4;

Predicate
parsePredicate(ByteReader &r)
{
    switch (r.getU8()) {
      case 0:
        return CompareVersion{r.getU64()};
      case 1:
        return CompareSize{r.getU64()};
      case 2: {
        CompareBlock cb;
        cb.position = r.getU64();
        r.getRaw(cb.expected.data(), cb.expected.size());
        return cb;
      }
      case 3: {
        SearchPredicate sp;
        r.getRaw(sp.trapdoor.wordToken.data(),
                 sp.trapdoor.wordToken.size());
        sp.expectPresent = r.getU8() != 0;
        return sp;
      }
      default:
        r.fail();
        return CompareVersion{};
    }
}

Action
parseAction(ByteReader &r)
{
    switch (r.getU8()) {
      case 0: {
        ReplaceBlock a;
        a.position = r.getU64();
        a.ciphertext = r.getSharedBlob();
        return a;
      }
      case 1: {
        InsertBlock a;
        a.position = r.getU64();
        a.ciphertext = r.getSharedBlob();
        return a;
      }
      case 2:
        return DeleteBlock{r.getU64()};
      case 3:
        return AppendBlock{r.getSharedBlob()};
      case 4: {
        SetSearchIndex a;
        std::uint32_t n = r.getU32();
        if (r.backs(n, SearchIndex::tokenBytes)) {
            const std::size_t bytes = n * SearchIndex::tokenBytes;
            a.index.maskedTokens = Blob::filled(
                bytes, [&](std::uint8_t *out) { r.getRaw(out, bytes); });
        }
        return a;
      }
      default:
        r.fail();
        return DeleteBlock{};
    }
}

} // namespace

std::optional<Update>
Update::deserializeFull(ByteSpan wire)
{
    ByteReader outer(wire);
    Bytes body = outer.getBlob();
    Bytes sig = outer.getBlob();

    Update u;
    ByteReader r(body);
    Sha1Digest guid{};
    r.getRaw(guid.data(), guid.size());
    u.objectGuid = Guid(guid);
    u.timestamp.time = r.getU64();
    u.timestamp.clientId = r.getU64();
    std::uint32_t num_clauses = r.getU32();
    // A clause is at least its two 4-byte counts.
    if (r.backs(num_clauses, 8))
        u.clauses.resize(num_clauses);
    for (auto &clause : u.clauses) {
        std::uint32_t np = r.getU32();
        if (r.backs(np, minPredicateBytes)) {
            for (std::uint32_t i = 0; i < np; i++)
                clause.predicates.push_back(parsePredicate(r));
        }
        std::uint32_t na = r.getU32();
        if (r.backs(na, minActionBytes)) {
            for (std::uint32_t i = 0; i < na; i++)
                clause.actions.push_back(parseAction(r));
        }
    }
    u.writerPublicKey = r.getBlob();
    if (!outer.ok() || !r.ok())
        return std::nullopt;
    u.signature.bytes = std::move(sig);
    return u;
}

std::size_t
Update::wireSize() const
{
    if (cachedSignedSize_ == 0)
        serializeForSigning(); // memoizes cachedSignedSize_
    return cachedSignedSize_ + signature.bytes.size();
}

SharedUpdate
shareUpdate(Update u)
{
    u.id(); // memoizes the id and the signed size together
    return std::make_shared<const Update>(std::move(u));
}

} // namespace oceanstore
