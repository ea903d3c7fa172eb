#include "src/core/gma.h"

#include "gtest/gtest.h"
#include "src/core/server.h"
#include "src/gen/network_gen.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace cknn {
namespace {

// Node ids in MakeFigure11(): n1..n9 -> 0..8. Edge ids:
// e0=n1n8 e1=n1n9 e2=n1n7 e3=n7n6 e4=n6n5 e5=n1n2 e6=n2n3 e7=n2n5 e8=n5n4.

TEST(GmaTest, ActiveNodesFollowQueries) {
  RoadNetwork net = testing::MakeFigure11();
  ObjectTable objects(net.NumEdges());
  Gma gma(&net, &objects);
  UpdateBatch batch;
  // Objects p1..p5 in the spirit of Figure 11.
  batch.objects.push_back(ObjectUpdate{1, std::nullopt, NetworkPoint{0, 0.5}});
  batch.objects.push_back(ObjectUpdate{2, std::nullopt, NetworkPoint{7, 0.5}});
  batch.objects.push_back(ObjectUpdate{3, std::nullopt, NetworkPoint{8, 0.4}});
  batch.objects.push_back(ObjectUpdate{4, std::nullopt, NetworkPoint{3, 0.5}});
  batch.objects.push_back(ObjectUpdate{5, std::nullopt, NetworkPoint{2, 0.3}});
  // q1 on the chain n1-n7 (edge 2): sequence endpoints n1, n5 are
  // intersections -> both become active.
  batch.queries.push_back(QueryUpdate{0, QueryUpdate::Kind::kInstall,
                                      NetworkPoint{2, 0.5}, 2});
  testing::ApplyObjectUpdates(batch.objects, &objects);
  gma.ProcessTimestamp(batch);
  EXPECT_EQ(gma.NumActiveNodes(), 2u);
  EXPECT_EQ(gma.NumQueries(), 1u);
  ASSERT_NE(gma.ResultOf(0), nullptr);
  EXPECT_EQ(gma.ResultOf(0)->size(), 2u);
  // Terminating the only query deactivates both nodes.
  UpdateBatch done;
  done.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kTerminate, NetworkPoint{}, 0});
  gma.ProcessTimestamp(done);
  EXPECT_EQ(gma.NumActiveNodes(), 0u);
  EXPECT_EQ(gma.NumQueries(), 0u);
}

TEST(GmaTest, NkIsMaxOverQueries) {
  RoadNetwork net = testing::MakeFigure11();
  ObjectTable objects(net.NumEdges());
  for (ObjectId i = 0; i < 6; ++i) {
    objects.Insert(i, NetworkPoint{i, 0.5});
  }
  // Insert objects through the table directly, then only queries via GMA.
  Gma gma(&net, &objects);
  UpdateBatch batch;
  batch.queries.push_back(QueryUpdate{0, QueryUpdate::Kind::kInstall,
                                      NetworkPoint{2, 0.2}, 1});
  batch.queries.push_back(QueryUpdate{1, QueryUpdate::Kind::kInstall,
                                      NetworkPoint{3, 0.5}, 3});
  gma.ProcessTimestamp(batch);
  // Active nodes n1 (0) and n5 (4) must monitor k = max(1, 3) = 3.
  ASSERT_NE(gma.engine().ResultOf(0), nullptr);
  EXPECT_EQ(gma.engine().KOf(0), 3);
  EXPECT_EQ(gma.engine().KOf(4), 3);
  // Terminate the 3-NN query: n.k shrinks to 1.
  UpdateBatch done;
  done.queries.push_back(
      QueryUpdate{1, QueryUpdate::Kind::kTerminate, NetworkPoint{}, 0});
  gma.ProcessTimestamp(done);
  EXPECT_EQ(gma.engine().KOf(0), 1);
}

TEST(GmaTest, QueryOnTerminalSequenceUsesSingleActiveNode) {
  RoadNetwork net = testing::MakeFigure11();
  ObjectTable objects(net.NumEdges());
  Gma gma(&net, &objects);
  UpdateBatch batch;
  batch.objects.push_back(ObjectUpdate{1, std::nullopt, NetworkPoint{7, 0.2}});
  batch.objects.push_back(ObjectUpdate{2, std::nullopt, NetworkPoint{0, 0.5}});
  // q3 on n5n4 (edge 8): n4 is terminal, only n5 becomes active.
  batch.queries.push_back(QueryUpdate{0, QueryUpdate::Kind::kInstall,
                                      NetworkPoint{8, 0.5}, 2});
  testing::ApplyObjectUpdates(batch.objects, &objects);
  gma.ProcessTimestamp(batch);
  EXPECT_EQ(gma.NumActiveNodes(), 1u);
  ASSERT_NE(gma.ResultOf(0), nullptr);
  EXPECT_EQ(gma.ResultOf(0)->size(), 2u);
}

TEST(GmaTest, PureCycleComponentHasNoActiveNodes) {
  RoadNetwork net;
  const NodeId a = net.AddNode(Point{0, 0});
  const NodeId b = net.AddNode(Point{1, 0});
  const NodeId c = net.AddNode(Point{1, 1});
  const NodeId d = net.AddNode(Point{0, 1});
  ASSERT_TRUE(net.AddEdge(a, b).ok());
  ASSERT_TRUE(net.AddEdge(b, c).ok());
  ASSERT_TRUE(net.AddEdge(c, d).ok());
  ASSERT_TRUE(net.AddEdge(d, a).ok());
  ObjectTable objects(net.NumEdges());
  Gma gma(&net, &objects);
  UpdateBatch batch;
  batch.objects.push_back(ObjectUpdate{1, std::nullopt, NetworkPoint{2, 0.5}});
  batch.objects.push_back(ObjectUpdate{2, std::nullopt, NetworkPoint{1, 0.1}});
  batch.queries.push_back(QueryUpdate{0, QueryUpdate::Kind::kInstall,
                                      NetworkPoint{0, 0.5}, 2});
  testing::ApplyObjectUpdates(batch.objects, &objects);
  gma.ProcessTimestamp(batch);
  EXPECT_EQ(gma.NumActiveNodes(), 0u);
  ASSERT_NE(gma.ResultOf(0), nullptr);
  ASSERT_EQ(gma.ResultOf(0)->size(), 2u);
  // Distances: both objects reachable both ways around the ring; the walk
  // must pick the shorter side.
  const auto& result = *gma.ResultOf(0);
  EXPECT_NEAR(result[0].distance, 0.6, 1e-9);  // Object 2 via node b.
  EXPECT_NEAR(result[1].distance, 2.0, 1e-9);  // Object 1: both ways tie.
}

TEST(GmaTest, PureCycleWalkWrapsPastAnchor) {
  // Square ring; the object sits just past the sequence anchor, so the
  // short way to it crosses the anchor node — the walk must wrap.
  RoadNetwork net;
  const NodeId a = net.AddNode(Point{0, 0});
  const NodeId b = net.AddNode(Point{1, 0});
  const NodeId c = net.AddNode(Point{1, 1});
  const NodeId d = net.AddNode(Point{0, 1});
  ASSERT_TRUE(net.AddEdge(a, b).ok());  // e0
  ASSERT_TRUE(net.AddEdge(b, c).ok());  // e1
  ASSERT_TRUE(net.AddEdge(c, d).ok());  // e2
  ASSERT_TRUE(net.AddEdge(d, a).ok());  // e3
  ObjectTable objects(net.NumEdges());
  Gma gma(&net, &objects);
  UpdateBatch batch;
  // Object on e3 near node a (0.1 from a).
  batch.objects.push_back(ObjectUpdate{1, std::nullopt, NetworkPoint{3, 0.9}});
  // Query on e0 near a.
  batch.queries.push_back(QueryUpdate{0, QueryUpdate::Kind::kInstall,
                                      NetworkPoint{0, 0.5}, 1});
  testing::ApplyObjectUpdates(batch.objects, &objects);
  gma.ProcessTimestamp(batch);
  ASSERT_EQ(gma.ResultOf(0)->size(), 1u);
  EXPECT_NEAR((*gma.ResultOf(0))[0].distance, 0.6, 1e-9);
}

TEST(GmaTest, MovingQueryAcrossSequences) {
  RoadNetwork net = testing::MakeFigure11();
  ObjectTable objects(net.NumEdges());
  Gma gma(&net, &objects);
  UpdateBatch batch;
  batch.objects.push_back(ObjectUpdate{1, std::nullopt, NetworkPoint{0, 0.5}});
  batch.objects.push_back(ObjectUpdate{2, std::nullopt, NetworkPoint{8, 0.5}});
  batch.queries.push_back(QueryUpdate{0, QueryUpdate::Kind::kInstall,
                                      NetworkPoint{2, 0.5}, 1});
  testing::ApplyObjectUpdates(batch.objects, &objects);
  gma.ProcessTimestamp(batch);
  const std::size_t active_before = gma.NumActiveNodes();
  // Move into the n2n3 sequence: active set follows.
  UpdateBatch move;
  move.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kMove, NetworkPoint{6, 0.5}, 0});
  gma.ProcessTimestamp(move);
  EXPECT_NE(gma.NumActiveNodes(), 0u);
  EXPECT_LE(gma.NumActiveNodes(), active_before + 1);
  ASSERT_NE(gma.ResultOf(0), nullptr);
  EXPECT_EQ(gma.ResultOf(0)->size(), 1u);
}

TEST(GmaTest, SharedExecutionAcrossQueriesInOneSequence) {
  RoadNetwork net = testing::MakeFigure11();
  ObjectTable objects(net.NumEdges());
  Gma gma(&net, &objects);
  UpdateBatch batch;
  for (ObjectId i = 0; i < 5; ++i) {
    batch.objects.push_back(
        ObjectUpdate{i, std::nullopt, NetworkPoint{i, 0.5}});
  }
  // Three queries on the chain n1-n7-n6-n5 share two active nodes.
  batch.queries.push_back(QueryUpdate{0, QueryUpdate::Kind::kInstall,
                                      NetworkPoint{2, 0.3}, 2});
  batch.queries.push_back(QueryUpdate{1, QueryUpdate::Kind::kInstall,
                                      NetworkPoint{3, 0.5}, 2});
  batch.queries.push_back(QueryUpdate{2, QueryUpdate::Kind::kInstall,
                                      NetworkPoint{4, 0.7}, 2});
  testing::ApplyObjectUpdates(batch.objects, &objects);
  gma.ProcessTimestamp(batch);
  EXPECT_EQ(gma.NumQueries(), 3u);
  EXPECT_EQ(gma.NumActiveNodes(), 2u);  // Shared: n1 and n5 only.
}

TEST(GmaTest, UpdateFilteringSkipsUnrelatedQueries) {
  RoadNetwork net = testing::MakeFigure11();
  ObjectTable objects(net.NumEdges());
  Gma gma(&net, &objects);
  UpdateBatch batch;
  batch.objects.push_back(ObjectUpdate{1, std::nullopt, NetworkPoint{2, 0.4}});
  batch.objects.push_back(ObjectUpdate{2, std::nullopt, NetworkPoint{6, 0.6}});
  batch.queries.push_back(QueryUpdate{0, QueryUpdate::Kind::kInstall,
                                      NetworkPoint{2, 0.5}, 1});
  testing::ApplyObjectUpdates(batch.objects, &objects);
  gma.ProcessTimestamp(batch);
  const auto evals_before = gma.stats().evaluations;
  // Object 2 moves within edge 6, far from query 0's influence region and
  // not entering any monitored NN set: no re-evaluation.
  UpdateBatch far;
  far.objects.push_back(
      ObjectUpdate{2, NetworkPoint{6, 0.6}, NetworkPoint{6, 0.9}});
  testing::ApplyObjectUpdates(far.objects, &objects);
  gma.ProcessTimestamp(far);
  EXPECT_EQ(gma.stats().evaluations, evals_before);
}

/// GMA must agree with OVH across a randomized mixed workload.
TEST(GmaTest, AgreesWithOvhUnderMixedUpdates) {
  RoadNetwork base =
      GenerateRoadNetwork(NetworkGenConfig{.target_edges = 220, .seed = 8});
  MonitoringServer gma_server(base.SharedView(), Algorithm::kGma);
  MonitoringServer ovh_server(std::move(base), Algorithm::kOvh);
  Rng rng(55);
  const std::size_t num_edges = gma_server.network().NumEdges();
  UpdateBatch setup;
  std::vector<NetworkPoint> obj_pos(50);
  for (ObjectId i = 0; i < obj_pos.size(); ++i) {
    obj_pos[i] = NetworkPoint{static_cast<EdgeId>(rng.NextIndex(num_edges)),
                              rng.NextDouble()};
    setup.objects.push_back(ObjectUpdate{i, std::nullopt, obj_pos[i]});
  }
  std::vector<NetworkPoint> qry_pos(8);
  for (QueryId q = 0; q < qry_pos.size(); ++q) {
    qry_pos[q] = NetworkPoint{static_cast<EdgeId>(rng.NextIndex(num_edges)),
                              rng.NextDouble()};
    setup.queries.push_back(
        QueryUpdate{q, QueryUpdate::Kind::kInstall, qry_pos[q], 4});
  }
  ASSERT_TRUE(gma_server.Tick(setup).ok());
  ASSERT_TRUE(ovh_server.Tick(setup).ok());
  for (int ts = 0; ts < 12; ++ts) {
    UpdateBatch batch;
    for (ObjectId i = 0; i < obj_pos.size(); ++i) {
      if (!rng.NextBool(0.25)) continue;
      const NetworkPoint next{
          static_cast<EdgeId>(rng.NextIndex(num_edges)), rng.NextDouble()};
      batch.objects.push_back(ObjectUpdate{i, obj_pos[i], next});
      obj_pos[i] = next;
    }
    for (QueryId q = 0; q < qry_pos.size(); ++q) {
      if (!rng.NextBool(0.25)) continue;
      qry_pos[q] = NetworkPoint{
          static_cast<EdgeId>(rng.NextIndex(num_edges)), rng.NextDouble()};
      batch.queries.push_back(
          QueryUpdate{q, QueryUpdate::Kind::kMove, qry_pos[q], 0});
    }
    for (int e = 0; e < 6; ++e) {
      const EdgeId edge = static_cast<EdgeId>(rng.NextIndex(num_edges));
      batch.edges.push_back(
          EdgeUpdate{edge, gma_server.network().edge(edge).weight *
                               (rng.NextBool(0.5) ? 1.1 : 0.9)});
    }
    ASSERT_TRUE(gma_server.Tick(batch).ok());
    ASSERT_TRUE(ovh_server.Tick(batch).ok());
    for (QueryId q = 0; q < qry_pos.size(); ++q) {
      const auto* a = gma_server.ResultOf(q);
      const auto* b = ovh_server.ResultOf(q);
      ASSERT_NE(a, nullptr);
      ASSERT_NE(b, nullptr);
      testing::ExpectSameDistances(*a, *b);
    }
  }
}

// The sequence table is built once per graph and cached on the shared
// topology: every GMA instance over views of the same network holds the
// same table (PR-4 carry-over fix — the per-shard duplicates used to
// scale the active-node substrate with the shard count).
TEST(GmaTest, SequenceTableSharedAcrossViews) {
  RoadNetwork net =
      GenerateRoadNetwork(NetworkGenConfig{.target_edges = 200, .seed = 3});
  RoadNetwork view = net.SharedView();
  EXPECT_EQ(net.SharedSequences().get(), view.SharedSequences().get());

  ObjectTable objects_a(net.NumEdges());
  ObjectTable objects_b(net.NumEdges());
  Gma a(&net, &objects_a);
  Gma b(&view, &objects_b);
  EXPECT_EQ(&a.sequences(), &b.sequences());
  EXPECT_GT(a.SharedMemoryBytes(), 0u);
  EXPECT_EQ(a.SharedMemoryBytes(), b.SharedMemoryBytes());
}

// Memory pin for the shared table: the per-shard increment of a GMA
// server must not include another copy of the sequence table, so going
// from 1 shard to 8 adds less than one extra table's worth per shard.
TEST(GmaTest, ShardedServerCountsSequenceTableOnce) {
  RoadNetwork base =
      GenerateRoadNetwork(NetworkGenConfig{.target_edges = 400, .seed = 21});
  MonitoringServer serial(base.SharedView(), Algorithm::kGma);
  MonitoringServer sharded(base.SharedView(), Algorithm::kGma,
                           /*num_shards=*/8);
  const std::size_t st_bytes = serial.monitor().SharedMemoryBytes();
  ASSERT_GT(st_bytes, 0u);
  // Every shard reports the same shared block...
  std::size_t sum_monitors = 0;
  for (int s = 0; s < sharded.num_shards(); ++s) {
    EXPECT_EQ(sharded.shards().monitor(s).SharedMemoryBytes(), st_bytes);
    sum_monitors += sharded.shards().monitor(s).MemoryBytes();
  }
  // ...and the merged total counts it once. The bracket: per-shard
  // monitor bytes, plus exactly one sequence table, plus at most one
  // 8-byte/edge weight overlay per extra shard (a shard view's overlay
  // never exceeds the primary's capacity-based estimate). A per-shard
  // table copy would blow through the upper bound by 7 x st_bytes.
  const std::size_t overlay = sharded.network().OverlayMemoryBytes();
  const std::size_t mem8 = sharded.MonitorMemoryBytes();
  EXPECT_GE(mem8, sum_monitors + st_bytes);
  EXPECT_LE(mem8, sum_monitors + st_bytes + 7 * overlay);
  EXPECT_GE(mem8, serial.MonitorMemoryBytes());
}

// An object exactly at the bound, on an edge the walk enters at its far
// end: the edge's reach is 0, yet it needs an interval, or the object's
// move is filtered away and the query keeps it as a stale neighbor.
TEST(GmaTest, MoveOfAnObjectAtTheBoundReachesTheQuery) {
  // Grid 3: e0 = 0-1, e1 = 0-3, e2 = 1-2. Query 1 on e0 at 0.25 from the
  // corner 0; object 1 sits on the corner (e1, t = 0), at the bound.
  MonitoringServer gma(testing::MakeGrid(3), Algorithm::kGma);
  MonitoringServer ovh(testing::MakeGrid(3), Algorithm::kOvh);
  UpdateBatch setup;
  setup.objects.push_back(ObjectUpdate{0, std::nullopt, NetworkPoint{1, 0.75}});
  setup.objects.push_back(ObjectUpdate{1, std::nullopt, NetworkPoint{1, 0.0}});
  setup.queries.push_back(
      QueryUpdate{1, QueryUpdate::Kind::kInstall, NetworkPoint{0, 0.25}, 1});
  ASSERT_TRUE(gma.Tick(setup).ok());
  ASSERT_TRUE(ovh.Tick(setup).ok());
  UpdateBatch move;
  move.objects.push_back(
      ObjectUpdate{1, NetworkPoint{1, 0.0}, NetworkPoint{2, 0.75}});
  ASSERT_TRUE(gma.Tick(move).ok());
  ASSERT_TRUE(ovh.Tick(move).ok());
  ASSERT_NEAR((*ovh.ResultOf(1))[0].distance, 1.0, 1e-9);
  testing::ExpectSameDistances(*gma.ResultOf(1), *ovh.ResultOf(1));
}

// A termination in the same timestamp as an object move. The server moves
// the object in the shared table before the monitors run. Were the
// terminated query detached before the engine routed the move, lowering
// the shared active node's k would re-expand the node against the moved
// object, and the other query would keep the object at its old distance.
TEST(GmaTest, TerminationBesideAnObjectMoveKeepsTheOtherQueryFresh) {
  MonitoringServer gma(testing::MakeGrid(3), Algorithm::kGma);
  MonitoringServer ovh(testing::MakeGrid(3), Algorithm::kOvh);
  UpdateBatch setup;
  const NetworkPoint objects[] = {
      {5, 0.5}, {2, 1.0}, {1, 0.75}, {10, 0.75}};
  for (ObjectId i = 0; i < 4; ++i) {
    setup.objects.push_back(ObjectUpdate{i, std::nullopt, objects[i]});
  }
  setup.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kInstall, NetworkPoint{10, 0.25}, 2});
  setup.queries.push_back(
      QueryUpdate{1, QueryUpdate::Kind::kInstall, NetworkPoint{11, 0.5}, 1});
  ASSERT_TRUE(gma.Tick(setup).ok());
  ASSERT_TRUE(ovh.Tick(setup).ok());
  UpdateBatch batch;
  batch.objects.push_back(
      ObjectUpdate{3, objects[3], NetworkPoint{3, 0.75}});
  batch.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kTerminate, NetworkPoint{}, 0});
  ASSERT_TRUE(gma.Tick(batch).ok());
  ASSERT_TRUE(ovh.Tick(batch).ok());
  testing::ExpectSameDistances(*gma.ResultOf(1), *ovh.ResultOf(1));
}

}  // namespace
}  // namespace cknn
