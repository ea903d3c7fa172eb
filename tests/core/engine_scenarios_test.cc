// White-box scenario tests of the ImaEngine maintenance paths: each test
// drives one specific Section 4.2-4.4 mechanism on a hand-built network
// and inspects the expansion tree afterwards (distances, coverage,
// result), with the brute-force oracle as referee.

#include <algorithm>

#include "gtest/gtest.h"
#include "src/core/ima.h"
#include "tests/test_util.h"

namespace cknn {
namespace {

// Path 0-1-2-3-4 with a parallel branch 1-5-3 (so there are real
// alternative routes), unit-ish lengths.
//
//        5
//       / \   (edges 1-5 and 5-2)
//  0 - 1 - 2 - 3 - 4
//       \_______/
//        (via 5)
class EngineScenarioTest : public ::testing::Test {
 protected:
  EngineScenarioTest() {
    net_.AddNode(Point{0, 0});   // 0
    net_.AddNode(Point{1, 0});   // 1
    net_.AddNode(Point{2, 0});   // 2
    net_.AddNode(Point{3, 0});   // 3
    net_.AddNode(Point{4, 0});   // 4
    net_.AddNode(Point{2, 1});   // 5
    e01_ = *net_.AddEdge(0, 1);
    e12_ = *net_.AddEdge(1, 2);
    e23_ = *net_.AddEdge(2, 3);
    e34_ = *net_.AddEdge(3, 4);
    e15_ = *net_.AddEdge(1, 5);
    e53_ = *net_.AddEdge(5, 3);
    objects_ = std::make_unique<ObjectTable>(net_.NumEdges());
    engine_ = std::make_unique<ImaEngine>(&net_, objects_.get());
  }

  void ProcessEdge(EdgeId e, double new_weight) {
    std::vector<EdgeUpdate> edges{EdgeUpdate{e, new_weight}};
    engine_->ProcessUpdates({}, edges, {});
  }

  /// One tick of object updates in the server's order: the table first,
  /// then the engine.
  std::vector<QueryId> ProcessObjects(
      const std::vector<ObjectUpdate>& updates) {
    testing::ApplyObjectUpdates(updates, objects_.get());
    return engine_->ProcessUpdates(updates, {}, {});
  }

  void ExpectResultMatchesOracle(QueryId q, const NetworkPoint& pos,
                                 int k) {
    const auto want = testing::BruteForceKnn(net_, *objects_, pos, k);
    const auto* got = engine_->ResultOf(q);
    ASSERT_NE(got, nullptr);
    testing::ExpectSameDistances(*got, want);
    ASSERT_TRUE(engine_->CheckInvariants().ok());
  }

  RoadNetwork net_;
  EdgeId e01_, e12_, e23_, e34_, e15_, e53_;
  std::unique_ptr<ObjectTable> objects_;
  std::unique_ptr<ImaEngine> engine_;
};

TEST_F(EngineScenarioTest, TreeEdgeDecreaseAdjustsSubtreeDistances) {
  objects_->Insert(0, NetworkPoint{e34_, 0.5});
  engine_->AddQuery(1, ExpansionSource::AtPoint({e01_, 0.0}), 1);
  const ExpansionState* state = engine_->StateOf(1);
  const double d3_before = *state->NodeDistance(3);
  // Decrease the first tree edge by 0.5: everything downstream shifts.
  ProcessEdge(e01_, net_.edge(e01_).weight - 0.5);
  EXPECT_NEAR(*state->NodeDistance(3), d3_before - 0.5, 1e-9);
  ExpectResultMatchesOracle(1, NetworkPoint{e01_, 0.0}, 1);
}

TEST_F(EngineScenarioTest, TreeEdgeIncreaseReroutesThroughBranch) {
  objects_->Insert(0, NetworkPoint{e34_, 0.9});
  engine_->AddQuery(1, ExpansionSource::AtPoint({e01_, 0.0}), 1);
  // Make the straight middle edge terrible: path must go 1-5-3.
  ProcessEdge(e12_, 50.0);
  ExpectResultMatchesOracle(1, NetworkPoint{e01_, 0.0}, 1);
  const ExpansionState* state = engine_->StateOf(1);
  const auto* info3 = state->Info(3);
  ASSERT_NE(info3, nullptr);
  EXPECT_EQ(info3->via_edge, e53_);  // Re-routed through the branch.
}

TEST_F(EngineScenarioTest, NonTreeEdgeDecreaseCreatesShortcut) {
  objects_->Insert(0, NetworkPoint{e34_, 0.9});
  // Make the branch initially unattractive so 1-5-3 is non-tree.
  ASSERT_TRUE(net_.SetWeight(e15_, 5.0).ok());
  ASSERT_TRUE(net_.SetWeight(e53_, 5.0).ok());
  engine_->AddQuery(1, ExpansionSource::AtPoint({e01_, 0.0}), 1);
  // Now make the branch a super-shortcut; also degrade the straight path.
  ProcessEdge(e15_, 0.1);
  ProcessEdge(e53_, 0.1);
  ProcessEdge(e12_, 30.0);
  ExpectResultMatchesOracle(1, NetworkPoint{e01_, 0.0}, 1);
}

TEST_F(EngineScenarioTest, SourceEdgeWeightChangeRecomputes) {
  objects_->Insert(0, NetworkPoint{e23_, 0.5});
  engine_->AddQuery(1, ExpansionSource::AtPoint({e12_, 0.5}), 1);
  const auto recomputes_before = engine_->stats().full_recomputes;
  ProcessEdge(e12_, net_.edge(e12_).weight * 2.0);
  EXPECT_EQ(engine_->stats().full_recomputes, recomputes_before + 1);
  ExpectResultMatchesOracle(1, NetworkPoint{e12_, 0.5}, 1);
}

TEST_F(EngineScenarioTest, MoveAlongOwnEdgeReRoots) {
  objects_->Insert(0, NetworkPoint{e34_, 0.5});
  objects_->Insert(1, NetworkPoint{e01_, 0.1});
  engine_->AddQuery(1, ExpansionSource::AtPoint({e12_, 0.2}), 2);
  const auto reroots_before = engine_->stats().reroots;
  std::vector<ImaEngine::MoveRequest> moves{
      ImaEngine::MoveRequest{1, NetworkPoint{e12_, 0.8}}};
  engine_->ProcessUpdates({}, {}, moves);
  EXPECT_EQ(engine_->stats().reroots, reroots_before + 1);
  ExpectResultMatchesOracle(1, NetworkPoint{e12_, 0.8}, 2);
}

TEST_F(EngineScenarioTest, MoveOntoTreeEdgeReRoots) {
  objects_->Insert(0, NetworkPoint{e34_, 0.5});
  objects_->Insert(1, NetworkPoint{e01_, 0.5});
  engine_->AddQuery(1, ExpansionSource::AtPoint({e01_, 0.9}), 2);
  const auto reroots_before = engine_->stats().reroots;
  std::vector<ImaEngine::MoveRequest> moves{
      ImaEngine::MoveRequest{1, NetworkPoint{e23_, 0.5}}};
  engine_->ProcessUpdates({}, {}, moves);
  EXPECT_EQ(engine_->stats().reroots, reroots_before + 1);
  ExpectResultMatchesOracle(1, NetworkPoint{e23_, 0.5}, 2);
}

TEST_F(EngineScenarioTest, MoveOutsideTreeRecomputes) {
  objects_->Insert(0, NetworkPoint{e01_, 0.2});
  engine_->AddQuery(1, ExpansionSource::AtPoint({e01_, 0.1}), 1);
  // The 1-NN is adjacent: the tree is tiny, edge e34 is far outside it.
  const auto recomputes_before = engine_->stats().full_recomputes;
  std::vector<ImaEngine::MoveRequest> moves{
      ImaEngine::MoveRequest{1, NetworkPoint{e34_, 0.9}}};
  engine_->ProcessUpdates({}, {}, moves);
  EXPECT_EQ(engine_->stats().full_recomputes, recomputes_before + 1);
  ExpectResultMatchesOracle(1, NetworkPoint{e34_, 0.9}, 1);
}

TEST_F(EngineScenarioTest, OutgoingNeighborTriggersFrontierGrowth) {
  objects_->Insert(0, NetworkPoint{e01_, 0.5});
  objects_->Insert(1, NetworkPoint{e34_, 0.5});
  engine_->AddQuery(1, ExpansionSource::AtPoint({e01_, 0.4}), 1);
  EXPECT_EQ((*engine_->ResultOf(1))[0].id, 0u);
  // The nearest neighbor departs: the expansion must grow to find obj 1.
  std::vector<ObjectUpdate> updates{
      ObjectUpdate{0, NetworkPoint{e01_, 0.5}, std::nullopt}};
  const auto changed = ProcessObjects(updates);
  EXPECT_EQ(changed.size(), 1u);
  EXPECT_EQ((*engine_->ResultOf(1))[0].id, 1u);
  ExpectResultMatchesOracle(1, NetworkPoint{e01_, 0.4}, 1);
}

TEST_F(EngineScenarioTest, IncomingNeighborShrinksBound) {
  objects_->Insert(0, NetworkPoint{e34_, 0.5});
  engine_->AddQuery(1, ExpansionSource::AtPoint({e01_, 0.5}), 1);
  const double bound_before = engine_->BoundOf(1);
  std::vector<ObjectUpdate> updates{
      ObjectUpdate{1, std::nullopt, NetworkPoint{e01_, 0.6}}};
  ProcessObjects(updates);
  EXPECT_LT(engine_->BoundOf(1), bound_before);
  EXPECT_EQ((*engine_->ResultOf(1))[0].id, 1u);
  ExpectResultMatchesOracle(1, NetworkPoint{e01_, 0.5}, 1);
}

TEST_F(EngineScenarioTest, LazyShrinkReleasesCoverageEventually) {
  // k=1 with a far object: big tree. Then a near object appears: the bound
  // collapses and the lazy shrink must eventually drop far influence.
  objects_->Insert(0, NetworkPoint{e34_, 0.9});
  engine_->AddQuery(1, ExpansionSource::AtPoint({e01_, 0.1}), 1);
  ASSERT_EQ(engine_->InfluenceOf(e34_), std::vector<QueryId>{1});
  std::vector<ObjectUpdate> updates{
      ObjectUpdate{1, std::nullopt, NetworkPoint{e01_, 0.2}}};
  ProcessObjects(updates);
  // The far edge must no longer influence the query after the shrink.
  EXPECT_TRUE(engine_->InfluenceOf(e34_).empty());
  ASSERT_TRUE(engine_->CheckInvariants().ok());
}

TEST_F(EngineScenarioTest, IgnoredUpdateDoesNotChangeResult) {
  objects_->Insert(0, NetworkPoint{e01_, 0.5});
  objects_->Insert(1, NetworkPoint{e34_, 0.5});
  engine_->AddQuery(1, ExpansionSource::AtPoint({e01_, 0.4}), 1);
  // Far object wiggles within its own edge, far outside the bound.
  std::vector<ObjectUpdate> updates{ObjectUpdate{
      1, NetworkPoint{e34_, 0.5}, NetworkPoint{e34_, 0.6}}};
  const auto changed = ProcessObjects(updates);
  EXPECT_TRUE(changed.empty());
}

TEST_F(EngineScenarioTest, ChangedQueriesReturnedSortedById) {
  // Regression: the maintenance loop iterates the hash-ordered entry
  // table, so the changed-query list used to come back in hash order.
  // The API now canonicalizes it (ascending ids) so callers cannot pick
  // up a dependence on hash-iteration order.
  objects_->Insert(0, NetworkPoint{e12_, 0.5});
  for (QueryId q = 1; q <= 8; ++q) {
    engine_->AddQuery(q, ExpansionSource::AtPoint({e12_, 0.1 * q}), 1);
  }
  // Moving the only object changes every query's result.
  std::vector<ObjectUpdate> updates{
      ObjectUpdate{0, NetworkPoint{e12_, 0.5}, NetworkPoint{e12_, 0.05}}};
  const auto changed = ProcessObjects(updates);
  ASSERT_GE(changed.size(), 2u);
  EXPECT_TRUE(std::is_sorted(changed.begin(), changed.end()));
  EXPECT_TRUE(std::adjacent_find(changed.begin(), changed.end()) ==
              changed.end());
}

TEST_F(EngineScenarioTest, MultipleQueriesIndependentResults) {
  objects_->Insert(0, NetworkPoint{e01_, 0.5});
  objects_->Insert(1, NetworkPoint{e34_, 0.5});
  engine_->AddQuery(1, ExpansionSource::AtPoint({e01_, 0.2}), 1);
  engine_->AddQuery(2, ExpansionSource::AtPoint({e34_, 0.8}), 1);
  EXPECT_EQ((*engine_->ResultOf(1))[0].id, 0u);
  EXPECT_EQ((*engine_->ResultOf(2))[0].id, 1u);
  // A weight change on the middle only affects whoever covers it.
  ProcessEdge(e23_, net_.edge(e23_).weight * 1.1);
  ExpectResultMatchesOracle(1, NetworkPoint{e01_, 0.2}, 1);
  ExpectResultMatchesOracle(2, NetworkPoint{e34_, 0.8}, 1);
}

// Two decreases in one timestamp. Lowering the subtree below A-B prunes E,
// which is nearer than the subtree's deep end D; the shortcut D-E then
// reaches D through E. The non-tree rule bounds that path by D's own
// distance, which is sound only while no unsettled node is nearer than a
// settled one; D must not keep its lowered but stale distance.
//
//   Z - 0 - A - B - C - D - F   (query at 0, object on D-F)
//        \_______E______/
TEST(EngineDecreaseTest, ShortcutThroughANodeAnEarlierDecreasePruned) {
  RoadNetwork net;
  NodeId n[8];
  for (int i = 0; i < 8; ++i) n[i] = net.AddNode(Point{0.1 * i, 0.0});
  const NodeId z = n[0], o = n[1], a = n[2], b = n[3], c = n[4], d = n[5],
               e = n[6], f = n[7];
  const EdgeId zo = *net.AddEdge(o, z, 1.0);
  const EdgeId ab = *net.AddEdge(a, b, 20.0);
  const EdgeId de = *net.AddEdge(d, e, 60.0);
  const EdgeId df = *net.AddEdge(d, f, 10.0);
  ASSERT_TRUE(net.AddEdge(o, a, 10.0).ok());
  ASSERT_TRUE(net.AddEdge(b, c, 40.0).ok());
  ASSERT_TRUE(net.AddEdge(c, d, 40.0).ok());
  ASSERT_TRUE(net.AddEdge(o, e, 60.0).ok());
  ObjectTable objects(net.NumEdges());
  objects.Insert(0, NetworkPoint{df, 0.5});
  ImaEngine engine(&net, &objects);
  const NetworkPoint query{zo, 0.0};
  engine.AddQuery(1, ExpansionSource::AtPoint(query), 1);
  ASSERT_NEAR((*engine.ResultOf(1))[0].distance, 115.0, 1e-9);

  engine.ProcessUpdates({}, {EdgeUpdate{ab, 5.0}, EdgeUpdate{de, 10.0}}, {});
  // 0-E-D-F: 60 + 10 + 5.
  ASSERT_NEAR((*engine.ResultOf(1))[0].distance, 75.0, 1e-9);
  testing::ExpectSameDistances(*engine.ResultOf(1),
                               testing::BruteForceKnn(net, objects, query, 1));
  EXPECT_TRUE(engine.CheckInvariants().ok());
}

// Two decreases in one timestamp, the first pruning an endpoint of the
// query's own edge. Lowering Q1-A lowers A and B below Q2, the query's
// far endpoint, which is pruned; its only key through a settled node
// then runs back through Q1 (2.1875) and hides the direct reach along the
// query's edge (1.3125). Measured against 2.1875, B (also 2.1875) stays
// settled, and the shortcut B-Q2 can no longer lower it.
//
//   Q2 --q-- Q1 - A - B - C   (query q 1.3125 from Q2, 0.4375 from Q1;
//    \______________/          object 0 halfway along B-C)
TEST(EngineDecreaseTest, ShortcutFromAnEndOfTheQueryEdgeADecreasePruned) {
  RoadNetwork net;
  NodeId n[5];
  for (int i = 0; i < 5; ++i) n[i] = net.AddNode(Point{0.1 * i, 0.0});
  const NodeId q2 = n[0], q1 = n[1], a = n[2], b = n[3], c = n[4];
  const EdgeId own = *net.AddEdge(q2, q1, 1.75);
  const EdgeId q1a = *net.AddEdge(q1, a, 1.0);
  ASSERT_TRUE(net.AddEdge(a, b, 1.0).ok());
  const EdgeId bq2 = *net.AddEdge(b, q2, 1.75);
  const EdgeId bc = *net.AddEdge(b, c, 1.0);
  ObjectTable objects(net.NumEdges());
  objects.Insert(0, NetworkPoint{bc, 0.5});
  ImaEngine engine(&net, &objects);
  const NetworkPoint query{own, 0.75};
  engine.AddQuery(1, ExpansionSource::AtPoint(query), 1);
  ASSERT_NEAR((*engine.ResultOf(1))[0].distance, 2.9375, 1e-9);

  engine.ProcessUpdates({}, {EdgeUpdate{q1a, 0.75}, EdgeUpdate{bq2, 0.75}},
                        {});
  // q-Q2-B-C: 1.3125 + 0.75 + 0.5.
  ASSERT_NEAR((*engine.ResultOf(1))[0].distance, 2.5625, 1e-9);
  testing::ExpectSameDistances(*engine.ResultOf(1),
                               testing::BruteForceKnn(net, objects, query, 1));
  EXPECT_TRUE(engine.CheckInvariants().ok());
}

// Across timestamps. Raising 0-X prunes X while S, kept from a larger
// bound, stays settled: X is now unsettled yet nearer than S. The next
// timestamp's shortcut X-S then lowers S, but the non-tree rule bounds the
// path through X by S's own distance; S must not stay stale until the
// bound grows back past it.
//
//   Z - 0 - X - S - T   (query at 0; object 2 at S; object 1 on 0-P)
//        \ \_____/
//         P
TEST(EngineDecreaseTest, ShortcutToANodeKeptBeyondTheFrontier) {
  RoadNetwork net;
  NodeId n[6];
  for (int i = 0; i < 6; ++i) n[i] = net.AddNode(Point{0.1 * i, 0.0});
  const NodeId o = n[0], z = n[1], p = n[2], x = n[3], s = n[4], t = n[5];
  const EdgeId oz = *net.AddEdge(o, z, 1.0);
  const EdgeId op = *net.AddEdge(o, p, 20.0);
  const EdgeId ox = *net.AddEdge(o, x, 11.0);
  const EdgeId xs = *net.AddEdge(x, s, 5.0);
  const EdgeId st = *net.AddEdge(s, t, 10.0);
  ASSERT_TRUE(net.AddEdge(o, s, 12.5).ok());
  ObjectTable objects(net.NumEdges());
  objects.Insert(2, NetworkPoint{st, 0.0});
  ImaEngine engine(&net, &objects);
  const NetworkPoint query{oz, 0.0};
  engine.AddQuery(1, ExpansionSource::AtPoint(query), 1);
  ASSERT_NEAR((*engine.ResultOf(1))[0].distance, 12.5, 1e-9);

  const NetworkPoint near_pos{op, 0.5};
  const ObjectUpdate arrive{1, std::nullopt, near_pos};
  testing::ApplyObjectUpdates({arrive}, &objects);
  engine.ProcessUpdates({arrive}, {EdgeUpdate{ox, 11.5}}, {});
  ASSERT_NEAR((*engine.ResultOf(1))[0].distance, 10.0, 1e-9);
  engine.ProcessUpdates({}, {EdgeUpdate{xs, 0.1}}, {});
  const ObjectUpdate depart{1, near_pos, std::nullopt};
  testing::ApplyObjectUpdates({depart}, &objects);
  engine.ProcessUpdates({depart}, {}, {});
  // 0-X-S: 11.5 + 0.1.
  ASSERT_NEAR((*engine.ResultOf(1))[0].distance, 11.6, 1e-9);
  testing::ExpectSameDistances(*engine.ResultOf(1),
                               testing::BruteForceKnn(net, objects, query, 1));
  EXPECT_TRUE(engine.CheckInvariants().ok());
}

}  // namespace
}  // namespace cknn
