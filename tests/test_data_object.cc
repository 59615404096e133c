/** @file Replica-side object semantics (Sections 4.4.1-2, Figure 4). */

#include <gtest/gtest.h>

#include "consistency/data_object.h"
#include "util/random.h"

namespace oceanstore {
namespace {

Update
unconditional(const Guid &g, std::vector<Action> actions)
{
    Update u;
    u.objectGuid = g;
    UpdateClause clause;
    clause.actions = std::move(actions);
    u.clauses.push_back(std::move(clause));
    return u;
}

Update
guarded(const Guid &g, std::vector<Predicate> preds,
        std::vector<Action> actions)
{
    Update u;
    u.objectGuid = g;
    UpdateClause clause;
    clause.predicates = std::move(preds);
    clause.actions = std::move(actions);
    u.clauses.push_back(std::move(clause));
    return u;
}

struct DataObjectTest : public ::testing::Test
{
    DataObjectTest() : g(Guid::hashOf("obj")), obj(g) {}

    void
    append(const std::string &s)
    {
        auto r = obj.apply(
            unconditional(g, {AppendBlock{toBytes(s)}}));
        ASSERT_TRUE(r.committed);
    }

    std::vector<std::string>
    contents() const
    {
        std::vector<std::string> out;
        for (const auto &b : obj.logicalContent())
            out.push_back(toString(b));
        return out;
    }

    Guid g;
    DataObject obj;
};

TEST_F(DataObjectTest, StartsEmptyAtVersionZero)
{
    EXPECT_EQ(obj.version(), 0u);
    EXPECT_EQ(obj.numLogicalBlocks(), 0u);
}

TEST_F(DataObjectTest, AppendGrowsObjectAndVersion)
{
    append("a");
    append("b");
    EXPECT_EQ(obj.version(), 2u);
    EXPECT_EQ(contents(), (std::vector<std::string>{"a", "b"}));
}

TEST_F(DataObjectTest, ReplaceBlock)
{
    append("a");
    append("b");
    auto r = obj.apply(
        unconditional(g, {ReplaceBlock{1, toBytes("B")}}));
    EXPECT_TRUE(r.committed);
    EXPECT_EQ(contents(), (std::vector<std::string>{"a", "B"}));
}

TEST_F(DataObjectTest, InsertUsesPointerBlocks)
{
    // Figure 4: insert 41.5 between 41 and 42.  Physically the old
    // slot becomes an index block; logically the order is 41, 41.5,
    // 42, 43.
    append("41");
    append("42");
    append("43");
    std::size_t phys_before = obj.numPhysicalBlocks();
    auto r = obj.apply(
        unconditional(g, {InsertBlock{1, toBytes("41.5")}}));
    EXPECT_TRUE(r.committed);
    EXPECT_EQ(contents(),
              (std::vector<std::string>{"41", "41.5", "42", "43"}));
    // The server appended two physical blocks (new + displaced copy).
    EXPECT_EQ(obj.numPhysicalBlocks(), phys_before + 2);
}

TEST_F(DataObjectTest, NestedInserts)
{
    append("a");
    append("d");
    obj.apply(unconditional(g, {InsertBlock{1, toBytes("c")}}));
    obj.apply(unconditional(g, {InsertBlock{1, toBytes("b")}}));
    EXPECT_EQ(contents(),
              (std::vector<std::string>{"a", "b", "c", "d"}));
}

TEST_F(DataObjectTest, InsertAtEndActsAsAppend)
{
    append("a");
    obj.apply(unconditional(g, {InsertBlock{1, toBytes("b")}}));
    EXPECT_EQ(contents(), (std::vector<std::string>{"a", "b"}));
}

TEST_F(DataObjectTest, DeleteLeavesTombstone)
{
    append("a");
    append("b");
    append("c");
    auto r = obj.apply(unconditional(g, {DeleteBlock{1}}));
    EXPECT_TRUE(r.committed);
    EXPECT_EQ(contents(), (std::vector<std::string>{"a", "c"}));
    // Physical slot count unchanged: deletion is an empty pointer.
    EXPECT_EQ(obj.numPhysicalBlocks(), 3u);
}

TEST_F(DataObjectTest, CompareVersionGates)
{
    append("a");
    auto ok = obj.apply(guarded(g, {CompareVersion{1}},
                                {AppendBlock{toBytes("b")}}));
    EXPECT_TRUE(ok.committed);
    auto stale = obj.apply(guarded(g, {CompareVersion{1}},
                                   {AppendBlock{toBytes("c")}}));
    EXPECT_FALSE(stale.committed);
    EXPECT_EQ(obj.version(), 2u);
}

TEST_F(DataObjectTest, CompareSizeAndBlockPredicates)
{
    append("hello");
    EXPECT_TRUE(obj.evaluate(CompareSize{1}));
    EXPECT_FALSE(obj.evaluate(CompareSize{2}));

    CompareBlock cb;
    cb.position = 0;
    cb.expected = Sha1::hash(toBytes("hello"));
    EXPECT_TRUE(obj.evaluate(cb));
    cb.expected = Sha1::hash(toBytes("other"));
    EXPECT_FALSE(obj.evaluate(cb));
    cb.position = 9; // out of range is simply false
    EXPECT_FALSE(obj.evaluate(cb));
}

TEST_F(DataObjectTest, SearchPredicateOverIndex)
{
    SearchableCipher sc(toBytes("key"));
    obj.apply(unconditional(
        g, {SetSearchIndex{sc.buildIndex("alpha beta gamma")}}));

    SearchPredicate present;
    present.trapdoor = sc.trapdoor("beta");
    present.expectPresent = true;
    EXPECT_TRUE(obj.evaluate(present));

    SearchPredicate absent;
    absent.trapdoor = sc.trapdoor("delta");
    absent.expectPresent = false;
    EXPECT_TRUE(obj.evaluate(absent));
}

TEST_F(DataObjectTest, FirstTrueClauseWins)
{
    append("a");
    Update u;
    u.objectGuid = g;
    UpdateClause wrong;
    wrong.predicates.push_back(CompareVersion{99});
    wrong.actions.push_back(AppendBlock{toBytes("wrong")});
    UpdateClause right;
    right.predicates.push_back(CompareVersion{1});
    right.actions.push_back(AppendBlock{toBytes("right")});
    UpdateClause fallback;
    fallback.actions.push_back(AppendBlock{toBytes("fallback")});
    u.clauses = {wrong, right, fallback};

    auto r = obj.apply(u);
    EXPECT_TRUE(r.committed);
    EXPECT_EQ(r.clauseFired, 1u);
    EXPECT_EQ(contents(), (std::vector<std::string>{"a", "right"}));
}

TEST_F(DataObjectTest, AbortWhenNoClauseHolds)
{
    append("a");
    auto r = obj.apply(guarded(g, {CompareVersion{5}},
                               {AppendBlock{toBytes("x")}}));
    EXPECT_FALSE(r.committed);
    EXPECT_EQ(obj.version(), 1u);
    // The update is logged regardless (Section 4.4.1).
    EXPECT_EQ(obj.log().size(), 2u);
    EXPECT_FALSE(obj.log().back().committed);
}

TEST_F(DataObjectTest, InvalidActionAbortsClauseAtomically)
{
    append("a");
    // Second action out of range: nothing from the clause applies.
    auto r = obj.apply(unconditional(
        g, {AppendBlock{toBytes("b")}, ReplaceBlock{9, toBytes("x")}}));
    EXPECT_FALSE(r.committed);
    EXPECT_EQ(contents(), (std::vector<std::string>{"a"}));
}

TEST_F(DataObjectTest, MaterializeHistoricalVersions)
{
    append("v1");
    obj.apply(unconditional(g, {ReplaceBlock{0, toBytes("v2")}}));
    obj.apply(unconditional(g, {AppendBlock{toBytes("tail")}}));

    DataObject v1 = obj.materializeVersion(1);
    EXPECT_EQ(v1.version(), 1u);
    EXPECT_EQ(toString(v1.logicalBlock(0)), "v1");

    DataObject v2 = obj.materializeVersion(2);
    EXPECT_EQ(toString(v2.logicalBlock(0)), "v2");
    EXPECT_EQ(v2.numLogicalBlocks(), 1u);

    DataObject v3 = obj.materializeVersion(3);
    EXPECT_EQ(v3.numLogicalBlocks(), 2u);
}

TEST_F(DataObjectTest, SerializeStateIsVersionSensitive)
{
    append("a");
    Bytes s1 = obj.serializeState();
    append("b");
    Bytes s2 = obj.serializeState();
    EXPECT_NE(s1, s2);
    EXPECT_EQ(obj.serializeState(), s2); // stable snapshot
}

TEST_F(DataObjectTest, EmptyPredicateClauseAlwaysFires)
{
    auto r = obj.apply(unconditional(g, {}));
    EXPECT_TRUE(r.committed); // vacuous but commits a new version
    EXPECT_EQ(obj.version(), 1u);
}

/**
 * The naive reference: apply @p actions to a copy of @p blocks, one by
 * one, checking each position against the copy as it stands.
 * @return false (leaving @p blocks alone) if any action is invalid.
 */
bool
trialApply(std::vector<std::string> &blocks,
           const std::vector<Action> &actions)
{
    std::vector<std::string> trial = blocks;
    for (const Action &a : actions) {
        if (const auto *r = std::get_if<ReplaceBlock>(&a)) {
            if (r->position >= trial.size())
                return false;
            trial[r->position] = toString(r->ciphertext);
        } else if (const auto *i = std::get_if<InsertBlock>(&a)) {
            if (i->position > trial.size())
                return false;
            trial.insert(trial.begin() + static_cast<long>(i->position),
                         toString(i->ciphertext));
        } else if (const auto *d = std::get_if<DeleteBlock>(&a)) {
            if (d->position >= trial.size())
                return false;
            trial.erase(trial.begin() + static_cast<long>(d->position));
        } else if (const auto *ap = std::get_if<AppendBlock>(&a)) {
            trial.push_back(toString(ap->ciphertext));
        }
    }
    blocks = std::move(trial);
    return true;
}

TEST_F(DataObjectTest, ClauseValidityMatchesTrialApplication)
{
    // Random multi-action clauses, with positions up to two past the
    // end so that a share of them is invalid, against the reference.
    // Deletes are drawn as often as inserts and appends together, so
    // the object stays small and its edges are hit often.
    Rng rng(20260517);
    std::vector<std::string> ref;
    int rejected_clauses = 0;
    int aborts = 0;
    for (int step = 0; step < 2000; step++) {
        Update u;
        u.objectGuid = g;
        const int clauses = static_cast<int>(rng.between(1, 3));
        for (int c = 0; c < clauses; c++) {
            UpdateClause clause;
            const int actions = static_cast<int>(rng.between(1, 5));
            std::size_t size = ref.size();
            for (int k = 0; k < actions; k++) {
                const std::uint64_t pos = rng.below(size + 3);
                Bytes text =
                    toBytes("s" + std::to_string(step) + "." +
                            std::to_string(c) + "." + std::to_string(k));
                Action &a = clause.actions.emplace_back(DeleteBlock{pos});
                switch (rng.below(5)) {
                  case 0:
                    a.emplace<ReplaceBlock>(pos, std::move(text));
                    break;
                  case 1:
                    a.emplace<InsertBlock>(pos, std::move(text));
                    size++;
                    break;
                  case 2:
                  case 3:
                    size = size > 0 ? size - 1 : 0;
                    break;
                  default:
                    a.emplace<AppendBlock>(std::move(text));
                    size++;
                    break;
                }
            }
            u.clauses.push_back(std::move(clause));
        }

        bool expect_commit = false;
        std::size_t expect_clause = 0;
        for (std::size_t c = 0; c < u.clauses.size(); c++) {
            if (trialApply(ref, u.clauses[c].actions)) {
                expect_commit = true;
                expect_clause = c;
                break;
            }
            rejected_clauses++;
        }
        const ApplyResult r = obj.apply(u);
        ASSERT_EQ(r.committed, expect_commit) << "step " << step;
        if (expect_commit) {
            ASSERT_EQ(r.clauseFired, expect_clause) << "step " << step;
        }
        ASSERT_EQ(contents(), ref) << "step " << step;
        aborts += r.committed ? 0 : 1;
    }
    // Invalid clauses and whole aborts are both exercised, and the log
    // replays to the same state.
    EXPECT_GT(rejected_clauses, 100);
    EXPECT_GT(aborts, 10);
    std::vector<std::string> replayed;
    for (const Bytes &b :
         obj.materializeVersion(obj.version()).logicalContent())
        replayed.push_back(toString(b));
    EXPECT_EQ(replayed, ref);
}

TEST_F(DataObjectTest, VersionsShareBlocks)
{
    // Blocks are immutable Blobs: applying an update, logging it,
    // copying the object and rebuilding an old version all share the
    // update's buffer for every block the versions have in common.
    ASSERT_TRUE(obj.apply(unconditional(g, {AppendBlock{toBytes("a")},
                                            AppendBlock{toBytes("b")}}))
                    .committed);
    ASSERT_TRUE(
        obj.apply(unconditional(g, {ReplaceBlock{1, toBytes("B")}}))
            .committed);
    const auto &first = obj.log()[0].update->clauses[0].actions;
    const auto &second = obj.log()[1].update->clauses[0].actions;
    const std::uint8_t *a = std::get<AppendBlock>(first[0]).ciphertext.data();
    const std::uint8_t *b = std::get<AppendBlock>(first[1]).ciphertext.data();
    const std::uint8_t *big_b =
        std::get<ReplaceBlock>(second[0]).ciphertext.data();

    EXPECT_EQ(obj.logicalBlock(0).data(), a);
    EXPECT_EQ(obj.logicalBlock(1).data(), big_b);

    DataObject copy = obj;
    EXPECT_EQ(copy.logicalBlock(0).data(), a);
    EXPECT_EQ(copy.logicalBlock(1).data(), big_b);

    DataObject v1 = obj.materializeVersion(1);
    EXPECT_EQ(v1.logicalBlock(0).data(), a);
    EXPECT_EQ(v1.logicalBlock(1).data(), b);
    EXPECT_EQ(toString(v1.logicalBlock(1)), "b");
    EXPECT_EQ(obj.materializeVersion(2).logicalBlock(0).data(), a);
}

TEST_F(DataObjectTest, MaterializeVersionSharesUpdates)
{
    // Replaying the log to build an old version re-logs the source
    // object's updates by reference, never by copy.
    append("a");
    ASSERT_FALSE(obj.apply(unconditional(g, {DeleteBlock{7}})).committed);
    append("b");
    append("c");
    ASSERT_EQ(obj.log().size(), 4u);
    for (const LogEntry &e : obj.log())
        EXPECT_TRUE(e.update->identityCached());

    DataObject v2 = obj.materializeVersion(2);
    ASSERT_EQ(v2.version(), 2u);
    // Only committed entries are replayed: source entries 0 and 2.
    ASSERT_EQ(v2.log().size(), 2u);
    EXPECT_EQ(v2.log()[0].update.get(), obj.log()[0].update.get());
    EXPECT_EQ(v2.log()[1].update.get(), obj.log()[2].update.get());
    EXPECT_EQ(v2.log()[1].versionAfter, 2u);
}

} // namespace
} // namespace oceanstore
