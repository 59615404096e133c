#include "core/object_handle.h"

#include <algorithm>
#include <stdexcept>

namespace oceanstore {

namespace {

Bytes
deriveKey(const KeyPair &owner, const std::string &name,
          const char *label)
{
    Sha1 h;
    h.update(owner.privateKey);
    h.update(std::string_view(label));
    h.update(name);
    return digestToBytes(h.finish());
}

/** The cipher position in a stored block's 8-byte header. */
std::uint64_t
blockPosition(ByteSpan cipher)
{
    if (cipher.size() < 8)
        throw std::invalid_argument("decryptBlock: truncated block");
    std::uint64_t position = 0;
    for (int i = 0; i < 8; i++)
        position = (position << 8) | cipher[i];
    return position;
}

} // namespace

ObjectHandle::ObjectHandle(const KeyPair &owner, const std::string &name,
                           std::size_t block_size)
    : owner_(owner), name_(name),
      guid_(Guid::forObject(owner.publicKey, name)),
      blockSize_(block_size),
      readCipher_(deriveKey(owner, name, "read")),
      searchCipher_(deriveKey(owner, name, "search"))
{
    if (block_size == 0)
        throw std::invalid_argument("ObjectHandle: zero block size");
}

std::vector<Bytes>
ObjectHandle::splitBlocks(const Bytes &plaintext) const
{
    std::vector<Bytes> blocks;
    for (std::size_t off = 0; off < plaintext.size();
         off += blockSize_) {
        std::size_t len = std::min(blockSize_, plaintext.size() - off);
        blocks.emplace_back(plaintext.begin() + off,
                            plaintext.begin() + off + len);
    }
    if (blocks.empty())
        blocks.emplace_back(); // empty object still has one block
    return blocks;
}

Blob
ObjectHandle::encryptBlock(std::uint64_t position,
                           const Bytes &plain) const
{
    return Blob::filled(8 + plain.size(), [&](std::uint8_t *out) {
        for (int i = 0; i < 8; i++)
            out[i] = static_cast<std::uint8_t>(position >> (56 - 8 * i));
        readCipher_.encryptTo(position, plain.data(), plain.size(),
                              out + 8);
    });
}

Bytes
ObjectHandle::decryptBlock(ByteSpan cipher) const
{
    std::uint64_t position = blockPosition(cipher);
    Bytes out;
    readCipher_.decryptAppend(position, cipher.data() + 8,
                              cipher.size() - 8, out);
    return out;
}

Bytes
ObjectHandle::decryptContent(
    const std::vector<Bytes> &logical_blocks) const
{
    std::size_t total = 0;
    for (const auto &block : logical_blocks)
        total += block.size() - std::min<std::size_t>(block.size(), 8);
    Bytes out;
    out.reserve(total);
    for (const auto &block : logical_blocks) {
        std::uint64_t position = blockPosition(block);
        readCipher_.decryptAppend(position, block.data() + 8,
                                  block.size() - 8, out);
    }
    return out;
}

SearchIndex
ObjectHandle::buildSearchIndex(std::string_view document) const
{
    return searchCipher_.buildIndex(document);
}

SearchTrapdoor
ObjectHandle::searchTrapdoor(std::string_view word) const
{
    return searchCipher_.trapdoor(word);
}

void
ObjectHandle::sign(Update &u) const
{
    u.writerPublicKey = owner_.publicKey;
    u.signature = KeyRegistry::sign(owner_, u.serializeForSigning());
}

Update
ObjectHandle::makeUpdate(std::vector<UpdateClause> clauses,
                         Timestamp ts) const
{
    Update u;
    u.objectGuid = guid_;
    u.clauses = std::move(clauses);
    u.timestamp = ts;
    sign(u);
    return u;
}

Update
ObjectHandle::makeAppendUpdate(const Bytes &plaintext,
                               VersionNum expected_version,
                               Timestamp ts) const
{
    UpdateClause clause;
    clause.predicates.push_back(CompareVersion{expected_version});
    auto blocks = splitBlocks(plaintext);
    for (std::size_t i = 0; i < blocks.size(); i++) {
        // Cipher positions continue from a generous stride so appends
        // with different base versions never reuse a position.
        std::uint64_t pos = expected_version * (1u << 20) + i;
        clause.actions.push_back(
            AppendBlock{encryptBlock(pos, blocks[i])});
    }
    clause.actions.push_back(
        SetSearchIndex{buildSearchIndex(toString(plaintext))});
    return makeUpdate({std::move(clause)}, ts);
}

Update
ObjectHandle::makeReplaceUpdate(std::uint64_t position,
                                const Bytes &plain,
                                VersionNum expected_version,
                                Timestamp ts) const
{
    UpdateClause clause;
    clause.predicates.push_back(CompareVersion{expected_version});
    std::uint64_t cipher_pos =
        expected_version * (1u << 20) + 0x80000 + position;
    clause.actions.push_back(
        ReplaceBlock{position, encryptBlock(cipher_pos, plain)});
    return makeUpdate({std::move(clause)}, ts);
}

Update
ObjectHandle::makeInsertUpdate(std::uint64_t position,
                               const Bytes &plain,
                               VersionNum expected_version,
                               Timestamp ts) const
{
    UpdateClause clause;
    clause.predicates.push_back(CompareVersion{expected_version});
    std::uint64_t cipher_pos =
        expected_version * (1u << 20) + 0x80000 + position;
    clause.actions.push_back(
        InsertBlock{position, encryptBlock(cipher_pos, plain)});
    return makeUpdate({std::move(clause)}, ts);
}

Update
ObjectHandle::makeDeleteUpdate(std::uint64_t position,
                               VersionNum expected_version,
                               Timestamp ts) const
{
    UpdateClause clause;
    clause.predicates.push_back(CompareVersion{expected_version});
    clause.actions.push_back(DeleteBlock{position});
    return makeUpdate({std::move(clause)}, ts);
}

CompareBlock
ObjectHandle::expectBlock(std::uint64_t logical_position,
                          std::uint64_t cipher_position,
                          const Bytes &plain) const
{
    CompareBlock cb;
    cb.position = logical_position;
    cb.expected = Sha1::hash(encryptBlock(cipher_position, plain));
    return cb;
}

} // namespace oceanstore
