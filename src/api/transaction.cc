#include "api/transaction.h"

#include "util/logging.h"

namespace oceanstore {

Transaction::Transaction(Session &session, const ObjectHandle &handle)
    : session_(session), handle_(handle)
{
}

std::optional<Bytes>
Transaction::read()
{
    ReadResult rr = session_.read(handle_.guid());
    if (!rr.found)
        return std::nullopt;
    readVersion_ = rr.version;
    blocksAtRead_ = rr.blocks.size();
    didRead_ = true;
    return handle_.decryptContent(rr.blocks);
}

void
Transaction::write(const Bytes &new_content)
{
    pendingWrite_ = new_content;
}

TxResult
Transaction::commit()
{
    TxResult res;
    if (!pendingWrite_.has_value())
        return res; // nothing to do; vacuous abort
    if (!didRead_)
        fatal("Transaction: commit without read (read set empty)");

    // One clause: predicate checks the read set, actions apply the
    // write set.  The full-content replacement is expressed as
    // replace-block for surviving positions, appends for growth and
    // deletes for shrinkage — all over ciphertext.
    UpdateClause clause;
    clause.predicates.push_back(CompareVersion{readVersion_});

    auto blocks = handle_.splitBlocks(*pendingWrite_);
    std::size_t old_count = blocksAtRead_;
    std::size_t new_count = blocks.size();
    std::uint64_t base = (readVersion_ + 1) * (1ull << 20);
    for (std::size_t i = 0; i < new_count; i++) {
        Blob cipher = handle_.encryptBlock(base + i, blocks[i]);
        if (i < old_count)
            clause.actions.push_back(ReplaceBlock{i, cipher});
        else
            clause.actions.push_back(AppendBlock{cipher});
    }
    // Shrink: repeatedly delete the block that slides into position
    // new_count as its successors shift left.
    for (std::size_t i = new_count; i < old_count; i++)
        clause.actions.push_back(DeleteBlock{new_count});

    clause.actions.push_back(SetSearchIndex{
        handle_.buildSearchIndex(toString(*pendingWrite_))});

    Update u = handle_.makeUpdate({std::move(clause)},
                                  session_.makeTimestamp());
    WriteResult wr = session_.write(u);

    res.committed = wr.completed && wr.committed;
    res.version = wr.version;
    res.latency = wr.latency;
    return res;
}

} // namespace oceanstore
