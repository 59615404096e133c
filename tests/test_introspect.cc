/** @file Introspection tests (Section 4.7). */

#include <gtest/gtest.h>

#include "introspect/clustering.h"
#include "introspect/dsl.h"
#include "introspect/observation.h"
#include "introspect/prefetch.h"
#include "introspect/replica_mgmt.h"
#include "util/random.h"

namespace oceanstore {
namespace {

// --- the event-handler DSL --------------------------------------------

TEST(Dsl, FilterAndCount)
{
    auto h = EventHandler::parse("filter type == access\n"
                                 "count as hits");
    h.onEvent({"access", {}});
    h.onEvent({"write", {}});
    h.onEvent({"access", {}});
    EXPECT_EQ(h.matched(), 2u);
    EXPECT_DOUBLE_EQ(h.current()["hits"], 2.0);
}

TEST(Dsl, NumericFilters)
{
    auto h = EventHandler::parse("filter latency > 0.5\n"
                                 "count as slow");
    h.onEvent({"x", {{"latency", 0.4}}});
    h.onEvent({"x", {{"latency", 0.6}}});
    h.onEvent({"x", {{"latency", 0.5}}}); // not strictly greater
    h.onEvent({"x", {}});                 // missing field fails
    EXPECT_DOUBLE_EQ(h.current()["slow"], 1.0);
}

TEST(Dsl, WindowedAverage)
{
    auto h = EventHandler::parse("avg v window 2 as mean");
    h.onEvent({"x", {{"v", 1.0}}});
    h.onEvent({"x", {{"v", 3.0}}});
    EXPECT_DOUBLE_EQ(h.current()["mean"], 2.0);
    h.onEvent({"x", {{"v", 5.0}}}); // window slides: {3, 5}
    EXPECT_DOUBLE_EQ(h.current()["mean"], 4.0);
}

TEST(Dsl, SumMinMax)
{
    auto h = EventHandler::parse("sum bytes as total\n"
                                 "max bytes as biggest\n"
                                 "min bytes as smallest");
    for (double v : {5.0, 1.0, 9.0})
        h.onEvent({"x", {{"bytes", v}}});
    auto s = h.current();
    EXPECT_DOUBLE_EQ(s["total"], 15.0);
    EXPECT_DOUBLE_EQ(s["biggest"], 9.0);
    EXPECT_DOUBLE_EQ(s["smallest"], 1.0);
}

TEST(Dsl, EmitEveryN)
{
    auto h = EventHandler::parse("count as n\nemit every 3");
    for (int i = 0; i < 7; i++)
        h.onEvent({"x", {}});
    ASSERT_EQ(h.summaries().size(), 2u);
    EXPECT_DOUBLE_EQ(h.summaries()[0]["n"], 3.0);
    EXPECT_DOUBLE_EQ(h.summaries()[1]["n"], 6.0);
}

TEST(Dsl, LoopConstructsRejected)
{
    // "explicitly prohibits loops"
    EXPECT_THROW(EventHandler::parse("while true"),
                 std::invalid_argument);
    EXPECT_THROW(EventHandler::parse("for i in events"),
                 std::invalid_argument);
    EXPECT_THROW(EventHandler::parse("goto start"),
                 std::invalid_argument);
}

TEST(Dsl, MalformedLinesRejected)
{
    EXPECT_THROW(EventHandler::parse("filter latency"),
                 std::invalid_argument);
    EXPECT_THROW(EventHandler::parse("avg v window 0 as x"),
                 std::invalid_argument);
    EXPECT_THROW(EventHandler::parse("emit every 0"),
                 std::invalid_argument);
    EXPECT_THROW(EventHandler::parse("filter type ~= access"),
                 std::invalid_argument);
    EXPECT_THROW(EventHandler::parse("filter latency > fast"),
                 std::invalid_argument);
}

TEST(Dsl, OpBudgetEnforced)
{
    std::string program;
    for (int i = 0; i < 40; i++)
        program += "count as c" + std::to_string(i) + "\n";
    EXPECT_THROW(EventHandler::parse(program), std::invalid_argument);
}

TEST(Dsl, CommentsAndBlankLinesIgnored)
{
    auto h = EventHandler::parse("# a comment\n\ncount as n\n");
    h.onEvent({"x", {}});
    EXPECT_DOUBLE_EQ(h.current()["n"], 1.0);
}

// --- observation hierarchy ----------------------------------------------

TEST(Observation, MergeModes)
{
    ObservationDb db;
    db.record("x", 5, ObservationDb::Merge::Sum);
    db.record("x", 3, ObservationDb::Merge::Sum);
    EXPECT_DOUBLE_EQ(db.get("x"), 8.0);
    db.record("x", 100, ObservationDb::Merge::Max);
    EXPECT_DOUBLE_EQ(db.get("x"), 100.0);
    db.record("x", 2, ObservationDb::Merge::Min);
    EXPECT_DOUBLE_EQ(db.get("x"), 2.0);
    db.record("x", 42, ObservationDb::Merge::Replace);
    EXPECT_DOUBLE_EQ(db.get("x"), 42.0);
}

TEST(Observation, SoftStateClear)
{
    ObservationDb db;
    db.record("k", 1);
    db.clear();
    EXPECT_FALSE(db.has("k"));
}

TEST(Observation, FirstRecordStoresRawValue)
{
    // The first write of a key stores the value verbatim, whatever the
    // merge mode — Min/Max must not combine with a phantom zero.
    ObservationDb db;
    db.record("peak", 30, ObservationDb::Merge::Max);
    EXPECT_DOUBLE_EQ(db.get("peak"), 30.0);
    db.record("floor", 30, ObservationDb::Merge::Min);
    EXPECT_DOUBLE_EQ(db.get("floor"), 30.0);
    db.record("neg", -5, ObservationDb::Merge::Max);
    EXPECT_DOUBLE_EQ(db.get("neg"), -5.0);
    db.record("floor", 40, ObservationDb::Merge::Min);
    EXPECT_DOUBLE_EQ(db.get("floor"), 30.0); // now it merges
}

TEST(Observation, AbsentKeyReadsZeroButHasIsFalse)
{
    ObservationDb db;
    EXPECT_DOUBLE_EQ(db.get("missing"), 0.0);
    EXPECT_FALSE(db.has("missing"));
    db.record("zero", 0);
    EXPECT_TRUE(db.has("zero"));
}

TEST(Observation, AbsorbAppliesOneMergeModeToAllKeys)
{
    ObservationDb db;
    db.record("a", 10);
    Summary s = {{"a", 1.0}, {"b", 2.0}};
    db.absorb(s); // default Sum
    EXPECT_DOUBLE_EQ(db.get("a"), 11.0);
    EXPECT_DOUBLE_EQ(db.get("b"), 2.0); // fresh key: raw value
    db.absorb(s, ObservationDb::Merge::Max);
    EXPECT_DOUBLE_EQ(db.get("a"), 11.0); // max(11, 1)
    EXPECT_DOUBLE_EQ(db.get("b"), 2.0);
    db.absorb(s, ObservationDb::Merge::Replace);
    EXPECT_DOUBLE_EQ(db.get("a"), 1.0);
}

TEST(Observation, SnapshotCopiesEverything)
{
    ObservationDb db;
    db.record("a", 1);
    db.record("b", 2);
    Summary snap = db.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_DOUBLE_EQ(snap["a"], 1.0);
    db.record("a", 99); // snapshot is a value copy
    EXPECT_DOUBLE_EQ(snap["a"], 1.0);
}

TEST(Observation, MinForwardMergeTakesTheSmallest)
{
    IntrospectionNode parent("p"), a("a"), b("b");
    a.setParent(&parent);
    b.setParent(&parent);
    a.setForwardMerge("floor", ObservationDb::Merge::Min);
    b.setForwardMerge("floor", ObservationDb::Merge::Min);
    a.db().record("floor", 30);
    b.db().record("floor", 22);
    a.analyzeAndForward();
    b.analyzeAndForward();
    // First forward stores 30 raw; the second merges min(30, 22).
    EXPECT_DOUBLE_EQ(parent.db().get("floor"), 22.0);
}

TEST(Observation, ForwardsThroughMultipleLevels)
{
    // Section 4.7.1's hierarchy is recursive: leaf summaries climb
    // through an intermediate node to the root, aggregating at each
    // level.
    IntrospectionNode root("root"), mid("mid");
    IntrospectionNode leaf1("l1"), leaf2("l2");
    mid.setParent(&root);
    leaf1.setParent(&mid);
    leaf2.setParent(&mid);
    leaf1.db().record("requests", 10);
    leaf2.db().record("requests", 32);
    leaf1.analyzeAndForward();
    leaf2.analyzeAndForward();
    EXPECT_DOUBLE_EQ(mid.db().get("requests"), 42.0);
    mid.analyzeAndForward();
    EXPECT_DOUBLE_EQ(root.db().get("requests"), 42.0);
}

TEST(Observation, HandlersFeedDatabase)
{
    IntrospectionNode node("leaf");
    node.addHandler(EventHandler::parse("count as n\nemit every 2"));
    node.onEvent({"x", {}});
    node.onEvent({"x", {}});
    EXPECT_DOUBLE_EQ(node.db().get("n"), 2.0);
}

TEST(Observation, SummariesForwardUpHierarchy)
{
    IntrospectionNode parent("parent"), leaf1("l1"), leaf2("l2");
    leaf1.setParent(&parent);
    leaf2.setParent(&parent);
    leaf1.db().record("requests", 10);
    leaf2.db().record("requests", 32);
    leaf1.analyzeAndForward();
    leaf2.analyzeAndForward();
    // Parent absorbs with Sum: a wider-scale approximate view.
    EXPECT_DOUBLE_EQ(parent.db().get("requests"), 42.0);
}

TEST(Observation, AnalyzersRunBeforeForward)
{
    IntrospectionNode parent("p"), leaf("l");
    leaf.setParent(&parent);
    leaf.db().record("raw", 10);
    leaf.addAnalyzer([](ObservationDb &db) {
        db.record("derived", db.get("raw") * 2);
    });
    leaf.analyzeAndForward();
    EXPECT_DOUBLE_EQ(parent.db().get("derived"), 20.0);
}


TEST(Observation, ForwardMergeRules)
{
    IntrospectionNode parent("p"), a("a"), b("b");
    a.setParent(&parent);
    b.setParent(&parent);
    a.setForwardMerge("peak", ObservationDb::Merge::Max);
    b.setForwardMerge("peak", ObservationDb::Merge::Max);
    a.db().record("peak", 30);
    a.db().record("count", 5);
    b.db().record("peak", 22);
    b.db().record("count", 7);
    a.analyzeAndForward();
    b.analyzeAndForward();
    EXPECT_DOUBLE_EQ(parent.db().get("peak"), 30.0);  // max, not sum
    EXPECT_DOUBLE_EQ(parent.db().get("count"), 12.0); // default sum
}

// --- cluster recognition ---------------------------------------------------

TEST(Clustering, CoAccessBuildsEdges)
{
    SemanticGraph graph(3);
    Guid a = Guid::hashOf("a"), b = Guid::hashOf("b");
    graph.onAccess(a);
    graph.onAccess(b);
    EXPECT_GT(graph.weight(a, b), 0.0);
    EXPECT_DOUBLE_EQ(graph.weight(a, b), graph.weight(b, a));
}

TEST(Clustering, DetectsTwoClusters)
{
    SemanticGraph graph(2);
    Guid a = Guid::hashOf("a"), b = Guid::hashOf("b");
    Guid x = Guid::hashOf("x"), y = Guid::hashOf("y");
    // Two interleaved working sets, never co-accessed.
    for (int i = 0; i < 10; i++) {
        graph.onAccess(a);
        graph.onAccess(b);
    }
    for (int i = 0; i < 10; i++) {
        graph.onAccess(x);
        graph.onAccess(y);
    }
    auto clusters = graph.clusters(3.0);
    ASSERT_EQ(clusters.size(), 2u);
    for (const auto &c : clusters)
        EXPECT_EQ(c.size(), 2u);
}

TEST(Clustering, ThresholdPrunesWeakEdges)
{
    SemanticGraph graph(2);
    Guid a = Guid::hashOf("a"), b = Guid::hashOf("b");
    graph.onAccess(a);
    graph.onAccess(b); // weight 1
    EXPECT_TRUE(graph.clusters(5.0).empty());
    EXPECT_EQ(graph.clusters(0.5).size(), 1u);
}

TEST(Clustering, DecayAgesEdges)
{
    SemanticGraph graph(2);
    Guid a = Guid::hashOf("a"), b = Guid::hashOf("b");
    graph.onAccess(a);
    graph.onAccess(b);
    double before = graph.weight(a, b);
    graph.decay(0.5);
    EXPECT_DOUBLE_EQ(graph.weight(a, b), before * 0.5);
}

// --- prefetching ---------------------------------------------------------

TEST(Prefetch, LearnsFirstOrderPattern)
{
    Prefetcher p(1, 1);
    Guid a = Guid::hashOf("a"), b = Guid::hashOf("b");
    for (int i = 0; i < 5; i++) {
        p.onAccess(a);
        p.onAccess(b);
    }
    p.onAccess(a);
    auto preds = p.predict();
    ASSERT_EQ(preds.size(), 1u);
    EXPECT_EQ(preds[0], b);
}

TEST(Prefetch, HighOrderContextDisambiguates)
{
    // Sequence alternates: (a b x) (c b y) — after "b" alone the next
    // is ambiguous, but order-2 context (a,b)->x vs (c,b)->y is
    // exact.  This is the "high-order correlations" claim.
    Prefetcher p(2, 1);
    Guid a = Guid::hashOf("a"), b = Guid::hashOf("b");
    Guid c = Guid::hashOf("c");
    Guid x = Guid::hashOf("x"), y = Guid::hashOf("y");
    for (int i = 0; i < 10; i++) {
        p.onAccess(a);
        p.onAccess(b);
        p.onAccess(x);
        p.onAccess(c);
        p.onAccess(b);
        p.onAccess(y);
    }
    p.onAccess(a);
    p.onAccess(b);
    ASSERT_FALSE(p.predict().empty());
    EXPECT_EQ(p.predict()[0], x);

    p.onAccess(x); // consume, continue the stream
    p.onAccess(c);
    p.onAccess(b);
    EXPECT_EQ(p.predict()[0], y);
}

TEST(Prefetch, FallsBackToShorterContext)
{
    Prefetcher p(2, 1);
    Guid a = Guid::hashOf("a"), b = Guid::hashOf("b");
    Guid z = Guid::hashOf("z");
    for (int i = 0; i < 5; i++) {
        p.onAccess(a);
        p.onAccess(b);
    }
    // Fresh context (z, a) unseen at order 2; falls back to "a" -> b.
    p.onAccess(z);
    p.onAccess(a);
    ASSERT_FALSE(p.predict().empty());
    EXPECT_EQ(p.predict()[0], b);
}

TEST(Prefetch, SurvivesNoise)
{
    // Pattern a->b with 30% random noise objects interleaved: the
    // predictor still learns the dominant transition.
    Prefetcher p(1, 2);
    Rng rng(9);
    Guid a = Guid::hashOf("a"), b = Guid::hashOf("b");
    for (int i = 0; i < 200; i++) {
        p.onAccess(a);
        if (rng.chance(0.3))
            p.onAccess(Guid::random(rng));
        p.onAccess(b);
    }
    p.onAccess(a);
    auto preds = p.predict();
    ASSERT_FALSE(preds.empty());
    EXPECT_EQ(preds[0], b);
}

TEST(Prefetch, EmptyHistoryPredictsNothing)
{
    Prefetcher p(2, 2);
    EXPECT_TRUE(p.predict().empty());
}

// --- replica management ---------------------------------------------------

TEST(ReplicaMgmt, OverloadCreatesNearby)
{
    ReplicaPolicyConfig cfg;
    cfg.overloadThreshold = 100;
    ReplicaManager mgr(cfg);
    Guid obj = Guid::hashOf("hot");
    std::vector<ReplicaLoad> loads = {{obj, 1, 500}};
    ReplicaCandidates candidates = {{{obj, 1}, {7, 8}}};
    auto actions = mgr.decide(loads, candidates);
    ASSERT_EQ(actions.size(), 1u);
    EXPECT_EQ(actions[0].kind, ReplicaAction::Kind::Create);
    EXPECT_EQ(actions[0].target, 7u); // nearest candidate
}

TEST(ReplicaMgmt, CandidatesPerObjectOnSharedHost)
{
    // One host holds two hot objects whose readers sit apart: each
    // object's new replica goes to its own nearest candidate.
    ReplicaPolicyConfig cfg;
    cfg.overloadThreshold = 100;
    ReplicaManager mgr(cfg);
    Guid a = Guid::hashOf("a");
    Guid b = Guid::hashOf("b");
    std::vector<ReplicaLoad> loads = {{a, 1, 500}, {b, 1, 500}};
    ReplicaCandidates candidates = {{{a, 1}, {7}}, {{b, 1}, {8}}};
    auto actions = mgr.decide(loads, candidates);
    ASSERT_EQ(actions.size(), 2u);
    for (const auto &act : actions) {
        EXPECT_EQ(act.kind, ReplicaAction::Kind::Create);
        EXPECT_EQ(act.target, act.object == a ? 7u : 8u);
    }
}

TEST(ReplicaMgmt, DisuseRetires)
{
    ReplicaPolicyConfig cfg;
    cfg.disuseThreshold = 2;
    cfg.minReplicas = 1;
    ReplicaManager mgr(cfg);
    Guid obj = Guid::hashOf("cold");
    std::vector<ReplicaLoad> loads = {{obj, 1, 50}, {obj, 2, 0}};
    auto actions = mgr.decide(loads, {});
    ASSERT_EQ(actions.size(), 1u);
    EXPECT_EQ(actions[0].kind, ReplicaAction::Kind::Retire);
    EXPECT_EQ(actions[0].target, 2u);
}

TEST(ReplicaMgmt, NeverBelowFloor)
{
    ReplicaPolicyConfig cfg;
    cfg.disuseThreshold = 10;
    cfg.minReplicas = 1;
    ReplicaManager mgr(cfg);
    Guid obj = Guid::hashOf("o");
    std::vector<ReplicaLoad> loads = {{obj, 1, 0}}; // only replica
    auto actions = mgr.decide(loads, {});
    EXPECT_TRUE(actions.empty());
}

TEST(ReplicaMgmt, NeverAboveCap)
{
    ReplicaPolicyConfig cfg;
    cfg.overloadThreshold = 1;
    cfg.maxReplicas = 2;
    ReplicaManager mgr(cfg);
    Guid obj = Guid::hashOf("o");
    std::vector<ReplicaLoad> loads = {{obj, 1, 100}, {obj, 2, 100}};
    ReplicaCandidates candidates = {{{obj, 1}, {7}}, {{obj, 2}, {8}}};
    auto actions = mgr.decide(loads, candidates);
    EXPECT_TRUE(actions.empty()); // already at cap
}

TEST(ReplicaMgmt, DoesNotDoubleUpOnHost)
{
    ReplicaPolicyConfig cfg;
    cfg.overloadThreshold = 1;
    ReplicaManager mgr(cfg);
    Guid obj = Guid::hashOf("o");
    std::vector<ReplicaLoad> loads = {{obj, 1, 100}, {obj, 7, 100}};
    // The only candidate for host 1 already hosts a replica.
    ReplicaCandidates candidates = {{{obj, 1}, {7}}, {{obj, 7}, {1}}};
    auto actions = mgr.decide(loads, candidates);
    EXPECT_TRUE(actions.empty());
}

} // namespace
} // namespace oceanstore
