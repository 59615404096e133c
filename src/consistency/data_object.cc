#include "consistency/data_object.h"

#include <functional>

#include "util/check.h"
#include "util/logging.h"

namespace oceanstore {

void
DataObject::refreshLogical() const
{
    if (!logicalDirty_)
        return;
    logicalCache_.clear();
    // Iterative DFS through index blocks, emitting data blocks in
    // order.  Index blocks may nest arbitrarily deep after repeated
    // inserts.
    std::function<void(std::uint32_t)> walk = [&](std::uint32_t phys) {
        OS_DCHECK(phys < blocks_.size(),
                  "DataObject: dangling block reference ", phys);
        const StoredBlock &b = blocks_[phys];
        if (std::holds_alternative<DataBlock>(b)) {
            logicalCache_.push_back(phys);
        } else {
            for (std::uint32_t child :
                 std::get<IndexBlock>(b).children) {
                walk(child);
            }
        }
    };
    for (std::uint32_t phys : rootSequence_)
        walk(phys);
    logicalDirty_ = false;
}

std::size_t
DataObject::numLogicalBlocks() const
{
    refreshLogical();
    return logicalCache_.size();
}

std::uint32_t
DataObject::physicalOf(std::size_t pos) const
{
    refreshLogical();
    if (pos >= logicalCache_.size())
        fatal("DataObject: logical position out of range");
    return logicalCache_[pos];
}

const Blob &
DataObject::logicalBlock(std::size_t pos) const
{
    return std::get<DataBlock>(blocks_[physicalOf(pos)]).ciphertext;
}

std::vector<Bytes>
DataObject::logicalContent() const
{
    refreshLogical();
    std::vector<Bytes> out;
    out.reserve(logicalCache_.size());
    for (std::uint32_t phys : logicalCache_) {
        const Blob &b = std::get<DataBlock>(blocks_[phys]).ciphertext;
        out.emplace_back(b.begin(), b.end());
    }
    return out;
}

Sha1Digest
DataObject::blockHash(std::size_t pos) const
{
    return Sha1::hash(logicalBlock(pos));
}

bool
DataObject::evaluate(const Predicate &p) const
{
    return std::visit(
        [&](const auto &v) -> bool {
            using T = std::decay_t<decltype(v)>;
            if constexpr (std::is_same_v<T, CompareVersion>) {
                return version_ == v.expected;
            } else if constexpr (std::is_same_v<T, CompareSize>) {
                return numLogicalBlocks() == v.expectedBlocks;
            } else if constexpr (std::is_same_v<T, CompareBlock>) {
                if (v.position >= numLogicalBlocks())
                    return false;
                return blockHash(v.position) == v.expected;
            } else if constexpr (std::is_same_v<T, SearchPredicate>) {
                bool present =
                    SearchableCipher::match(searchIndex_, v.trapdoor);
                return present == v.expectPresent;
            }
        },
        p);
}

bool
DataObject::validateAction(const Action &a, std::size_t &blocks)
{
    return std::visit(
        [&](const auto &v) -> bool {
            using T = std::decay_t<decltype(v)>;
            if constexpr (std::is_same_v<T, ReplaceBlock>) {
                return v.position < blocks;
            } else if constexpr (std::is_same_v<T, InsertBlock>) {
                if (v.position > blocks)
                    return false;
                blocks++;
                return true;
            } else if constexpr (std::is_same_v<T, DeleteBlock>) {
                if (v.position >= blocks)
                    return false;
                blocks--;
                return true;
            } else if constexpr (std::is_same_v<T, AppendBlock>) {
                blocks++;
                return true;
            } else {
                return true; // set-search-index is always valid
            }
        },
        a);
}

void
DataObject::applyAction(const Action &a)
{
    std::visit(
        [&](const auto &v) {
            using T = std::decay_t<decltype(v)>;
            if constexpr (std::is_same_v<T, ReplaceBlock>) {
                std::uint32_t phys = physicalOf(v.position);
                std::get<DataBlock>(blocks_[phys]).ciphertext =
                    v.ciphertext;
            } else if constexpr (std::is_same_v<T, InsertBlock>) {
                if (v.position == numLogicalBlocks()) {
                    // Inserting at the end degenerates to append.
                    blocks_.emplace_back(std::in_place_type<DataBlock>,
                                         v.ciphertext);
                    rootSequence_.push_back(
                        static_cast<std::uint32_t>(blocks_.size() - 1));
                } else {
                    // Figure 4: append the new block and a copy of the
                    // displaced block, then turn the displaced slot
                    // into an index block pointing at both.
                    std::uint32_t phys = physicalOf(v.position);
                    Blob old = std::move(
                        std::get<DataBlock>(blocks_[phys]).ciphertext);
                    blocks_.emplace_back(std::in_place_type<DataBlock>,
                                         v.ciphertext);
                    auto new_phys =
                        static_cast<std::uint32_t>(blocks_.size() - 1);
                    blocks_.emplace_back(std::in_place_type<DataBlock>,
                                         std::move(old));
                    auto old_phys =
                        static_cast<std::uint32_t>(blocks_.size() - 1);
                    blocks_[phys] =
                        IndexBlock{{new_phys, old_phys}};
                }
            } else if constexpr (std::is_same_v<T, DeleteBlock>) {
                // Replace with an empty pointer block (tombstone).
                std::uint32_t phys = physicalOf(v.position);
                blocks_[phys] = IndexBlock{{}};
            } else if constexpr (std::is_same_v<T, AppendBlock>) {
                blocks_.emplace_back(std::in_place_type<DataBlock>,
                                     v.ciphertext);
                rootSequence_.push_back(
                    static_cast<std::uint32_t>(blocks_.size() - 1));
            } else if constexpr (std::is_same_v<T, SetSearchIndex>) {
                searchIndex_ = v.index;
            }
        },
        a);
    logicalDirty_ = true;
}

ApplyResult
DataObject::apply(SharedUpdate u)
{
    OS_DCHECK(u->identityCached(),
              "DataObject::apply: update shared with a cold memo");
    ApplyResult res;
    res.version = version_;

    for (std::size_t c = 0; c < u->clauses.size(); c++) {
        const UpdateClause &clause = u->clauses[c];
        bool holds = true;
        for (const Predicate &p : clause.predicates) {
            if (!evaluate(p)) {
                holds = false;
                break;
            }
        }
        if (!holds)
            continue;

        // Validate every action before touching state so the clause
        // applies atomically or not at all.  Whether an action is valid
        // depends only on the logical block count, which each action
        // before it moves by a known step.
        std::size_t blocks = numLogicalBlocks();
        bool valid = true;
        for (const Action &a : clause.actions) {
            if (!validateAction(a, blocks)) {
                valid = false;
                break;
            }
        }
        if (!valid)
            continue; // treat as a failed clause, try the next

        for (const Action &a : clause.actions)
            applyAction(a);
        version_++;
        res.committed = true;
        res.version = version_;
        res.clauseFired = c;
        break;
    }

    log_.push_back(LogEntry{std::move(u), res.committed, version_});
    return res;
}

SharedState
DataObject::successor(const SharedState &state, SharedUpdate u)
{
    const Guid uid = u->id();
    SuccessorMemo &memo = state->successor_;
    if (memo.updateId == uid) {
        if (SharedState next = memo.next.lock()) {
            OS_DCHECK(next->logicalCached(),
                      "DataObject::successor: shared a cold state");
            return next;
        }
    }
    auto next = std::make_shared<DataObject>(*state);
    next->apply(std::move(u));
    next->refreshLogical();
    memo.updateId = uid;
    memo.next = next;
    return next;
}

SharedState
DataObject::empty(const Guid &guid)
{
    auto state = std::make_shared<DataObject>(guid);
    state->refreshLogical();
    return state;
}

DataObject
DataObject::materializeVersion(VersionNum v) const
{
    DataObject obj(guid_);
    for (const LogEntry &e : log_) {
        if (obj.version_ >= v)
            break;
        if (e.committed)
            obj.apply(e.update);
    }
    return obj;
}

Bytes
DataObject::serializeState() const
{
    ByteWriter w;
    w.putRaw(guid_.toBytes());
    w.putU64(version_);
    w.putU32(static_cast<std::uint32_t>(blocks_.size()));
    for (const auto &b : blocks_) {
        if (std::holds_alternative<DataBlock>(b)) {
            w.putU8(0);
            w.putBlob(std::get<DataBlock>(b).ciphertext);
        } else {
            w.putU8(1);
            const auto &children = std::get<IndexBlock>(b).children;
            w.putU32(static_cast<std::uint32_t>(children.size()));
            for (auto c : children)
                w.putU32(c);
        }
    }
    w.putU32(static_cast<std::uint32_t>(rootSequence_.size()));
    for (auto r : rootSequence_)
        w.putU32(r);
    w.putU32(static_cast<std::uint32_t>(searchIndex_.size()));
    w.putRaw(searchIndex_.maskedTokens);
    return w.take();
}

} // namespace oceanstore
