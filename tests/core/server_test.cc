#include "src/core/server.h"

#include <limits>

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace cknn {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ServerTest, ConvenienceLifecycle) {
  MonitoringServer server(testing::MakeGrid(4), Algorithm::kIma);
  ASSERT_TRUE(server.AddObject(1, NetworkPoint{0, 0.5}).ok());
  ASSERT_TRUE(server.AddObject(2, NetworkPoint{5, 0.5}).ok());
  ASSERT_TRUE(server.InstallQuery(0, NetworkPoint{0, 0.1}, 1).ok());
  ASSERT_NE(server.ResultOf(0), nullptr);
  EXPECT_EQ(server.ResultOf(0)->size(), 1u);
  EXPECT_EQ((*server.ResultOf(0))[0].id, 1u);
  ASSERT_TRUE(server.MoveObject(1, NetworkPoint{11, 0.5}).ok());
  ASSERT_TRUE(server.RemoveObject(2).ok());
  ASSERT_TRUE(server.MoveQuery(0, NetworkPoint{3, 0.5}).ok());
  ASSERT_TRUE(server.UpdateEdgeWeight(0, 5.0).ok());
  EXPECT_DOUBLE_EQ(server.network().edge(0).weight, 5.0);
  ASSERT_TRUE(server.TerminateQuery(0).ok());
  EXPECT_EQ(server.ResultOf(0), nullptr);
  EXPECT_EQ(server.timestamp(), 8u);
}

TEST(ServerTest, ValidationRejectsBadUpdates) {
  MonitoringServer server(testing::MakeGrid(3), Algorithm::kOvh);
  ASSERT_TRUE(server.AddObject(1, NetworkPoint{0, 0.5}).ok());
  // Move with mismatched old position.
  UpdateBatch bad;
  bad.objects.push_back(
      ObjectUpdate{1, NetworkPoint{0, 0.9}, NetworkPoint{1, 0.5}});
  EXPECT_TRUE(server.Tick(bad).IsInvalidArgument());
  // Move of unknown object.
  UpdateBatch unknown;
  unknown.objects.push_back(
      ObjectUpdate{9, NetworkPoint{0, 0.5}, NetworkPoint{1, 0.5}});
  EXPECT_TRUE(server.Tick(unknown).IsNotFound());
  // Duplicate appearance.
  UpdateBatch dup;
  dup.objects.push_back(ObjectUpdate{1, std::nullopt, NetworkPoint{1, 0.5}});
  EXPECT_TRUE(server.Tick(dup).IsAlreadyExists());
  // Unknown edge in a weight update.
  UpdateBatch edge;
  edge.edges.push_back(EdgeUpdate{999, 1.0});
  EXPECT_TRUE(server.Tick(edge).IsNotFound());
  // Negative weight.
  UpdateBatch neg;
  neg.edges.push_back(EdgeUpdate{0, -2.0});
  EXPECT_TRUE(server.Tick(neg).IsInvalidArgument());
  // Query updates are validated too.
  UpdateBatch term;
  term.queries.push_back(
      QueryUpdate{7, QueryUpdate::Kind::kTerminate, NetworkPoint{}, 0});
  EXPECT_TRUE(server.Tick(term).IsNotFound());
  UpdateBatch mv;
  mv.queries.push_back(
      QueryUpdate{7, QueryUpdate::Kind::kMove, NetworkPoint{0, 0.5}, 0});
  EXPECT_TRUE(server.Tick(mv).IsNotFound());
  UpdateBatch bad_k;
  bad_k.queries.push_back(
      QueryUpdate{7, QueryUpdate::Kind::kInstall, NetworkPoint{0, 0.5}, 0});
  EXPECT_TRUE(server.Tick(bad_k).IsInvalidArgument());
  UpdateBatch bad_edge;
  bad_edge.queries.push_back(
      QueryUpdate{7, QueryUpdate::Kind::kInstall, NetworkPoint{999, 0.5}, 1});
  EXPECT_TRUE(server.Tick(bad_edge).IsInvalidArgument());
}

TEST(ServerTest, ValidationRejectsNonFiniteEdgeWeights) {
  // Regression: `u.new_weight < 0.0` is false for NaN, so a NaN weight
  // slid through stage-2 validation into every downstream `<` comparison.
  MonitoringServer server(testing::MakeGrid(3), Algorithm::kOvh);
  for (const double weight : {kNan, kInf, -kInf}) {
    UpdateBatch batch;
    batch.edges.push_back(EdgeUpdate{0, weight});
    EXPECT_TRUE(server.Tick(batch).IsInvalidArgument()) << weight;
  }
  // Finite non-negative weights (including zero) stay accepted.
  ASSERT_TRUE(server.UpdateEdgeWeight(0, 0.0).ok());
  ASSERT_TRUE(server.UpdateEdgeWeight(0, 1.5).ok());
}

TEST(ServerTest, ValidationRejectsNonFiniteOrOutOfRangeOffsets) {
  // Regression: NetworkPoint offsets were never range-checked, so a NaN
  // or out-of-[0,1] fraction entered the object table / engines.
  MonitoringServer server(testing::MakeGrid(3), Algorithm::kOvh);
  ASSERT_TRUE(server.AddObject(1, NetworkPoint{0, 0.5}).ok());
  ASSERT_TRUE(server.InstallQuery(0, NetworkPoint{0, 0.1}, 1).ok());
  for (const double t : {kNan, kInf, -kInf, -0.25, 1.25}) {
    SCOPED_TRACE(t);
    // Appearing object.
    UpdateBatch appear;
    appear.objects.push_back(
        ObjectUpdate{7, std::nullopt, NetworkPoint{0, t}});
    EXPECT_TRUE(server.Tick(appear).IsInvalidArgument());
    // Moving object (valid old position, bad target).
    UpdateBatch move;
    move.objects.push_back(
        ObjectUpdate{1, NetworkPoint{0, 0.5}, NetworkPoint{1, t}});
    EXPECT_TRUE(server.Tick(move).IsInvalidArgument());
    // Query install and move.
    UpdateBatch install;
    install.queries.push_back(
        QueryUpdate{5, QueryUpdate::Kind::kInstall, NetworkPoint{0, t}, 1});
    EXPECT_TRUE(server.Tick(install).IsInvalidArgument());
    UpdateBatch qmove;
    qmove.queries.push_back(
        QueryUpdate{0, QueryUpdate::Kind::kMove, NetworkPoint{0, t}, 0});
    EXPECT_TRUE(server.Tick(qmove).IsInvalidArgument());
  }
  // Nothing leaked into the tables, and the boundary offsets stay legal.
  EXPECT_FALSE(server.objects().Contains(7));
  EXPECT_EQ(server.objects().Position(1).value(), (NetworkPoint{0, 0.5}));
  ASSERT_TRUE(server.MoveObject(1, NetworkPoint{1, 0.0}).ok());
  ASSERT_TRUE(server.MoveObject(1, NetworkPoint{1, 1.0}).ok());
}

TEST(ServerTest, AggregationDoesNotLaunderInconsistentObjectChains) {
  // Regression: the object fold only rewrote new_pos, so an invalid chain
  // like insert@p1 -> move(old=p999 -> p2) collapsed into a plausible
  // insert@p2 that validation accepted, while a sequential replay of the
  // same updates would reject the move. Both orders must reject now, with
  // the same status category the sequential replay surfaces.
  for (const Algorithm algo :
       {Algorithm::kIma, Algorithm::kGma, Algorithm::kOvh}) {
    SCOPED_TRACE(AlgorithmName(algo));
    MonitoringServer server(testing::MakeGrid(4), algo);
    ASSERT_TRUE(server.AddObject(1, NetworkPoint{0, 0.5}).ok());
    // insert @ p1, then a move whose old position contradicts the chain.
    UpdateBatch laundered;
    laundered.objects.push_back(
        ObjectUpdate{7, std::nullopt, NetworkPoint{0, 0.25}});
    laundered.objects.push_back(
        ObjectUpdate{7, NetworkPoint{9, 0.75}, NetworkPoint{1, 0.5}});
    EXPECT_TRUE(server.Tick(laundered).IsInvalidArgument());
    EXPECT_FALSE(server.objects().Contains(7));
    // remove, then a move of the now-gone object: sequential NotFound.
    UpdateBatch move_after_remove;
    move_after_remove.objects.push_back(
        ObjectUpdate{1, NetworkPoint{0, 0.5}, std::nullopt});
    move_after_remove.objects.push_back(
        ObjectUpdate{1, NetworkPoint{0, 0.5}, NetworkPoint{1, 0.5}});
    EXPECT_TRUE(server.Tick(move_after_remove).IsNotFound());
    EXPECT_TRUE(server.objects().Contains(1));  // Whole batch rejected.
    // move, then an insert of the still-present object: AlreadyExists.
    UpdateBatch insert_while_present;
    insert_while_present.objects.push_back(
        ObjectUpdate{1, NetworkPoint{0, 0.5}, NetworkPoint{1, 0.5}});
    insert_while_present.objects.push_back(
        ObjectUpdate{1, std::nullopt, NetworkPoint{2, 0.5}});
    EXPECT_TRUE(server.Tick(insert_while_present).IsAlreadyExists());
    EXPECT_EQ(server.objects().Position(1).value(), (NetworkPoint{0, 0.5}));
    // insert -> delete -> move(old=table pos) on an id the table already
    // holds: the consistent insert+delete prefix folds to a no-op, and
    // erasing that no-op slot used to delete the evidence — the leftover
    // raw move matched the table and the batch was accepted, while a
    // sequential replay rejects the stream at the *insert* with
    // AlreadyExists. A broken chain must be emitted raw in full.
    UpdateBatch erased_evidence;
    erased_evidence.objects.push_back(
        ObjectUpdate{1, std::nullopt, NetworkPoint{1, 0.5}});
    erased_evidence.objects.push_back(
        ObjectUpdate{1, NetworkPoint{1, 0.5}, std::nullopt});
    erased_evidence.objects.push_back(
        ObjectUpdate{1, NetworkPoint{0, 0.5}, NetworkPoint{2, 0.5}});
    EXPECT_TRUE(server.Tick(erased_evidence).IsAlreadyExists());
    EXPECT_EQ(server.objects().Position(1).value(), (NetworkPoint{0, 0.5}));
    // A consistent chain still folds and applies.
    UpdateBatch chained;
    chained.objects.push_back(
        ObjectUpdate{1, NetworkPoint{0, 0.5}, NetworkPoint{1, 0.25}});
    chained.objects.push_back(
        ObjectUpdate{1, NetworkPoint{1, 0.25}, NetworkPoint{2, 0.75}});
    ASSERT_TRUE(server.Tick(chained).ok());
    EXPECT_EQ(server.objects().Position(1).value(), (NetworkPoint{2, 0.75}));
  }
}

TEST(ServerTest, ShardFailureAfterValidationAborts) {
  // Stage-2 validation makes a stage-4 shard failure unreachable; were
  // one to slip through, the shared table would already be mutated with
  // the engines unrouted. That residual path is a CKNN_CHECK, not a
  // Status pretending the server is still usable. Reproduced by
  // desynchronizing the engine behind the server's back through the
  // diagnostics accessor: terminate a query directly in the monitor, then
  // feed the server a move for it — validation (whose registry still
  // carries the query) passes, the engine rejects, the server aborts.
  EXPECT_DEATH(
      {
        MonitoringServer server(testing::MakeGrid(3), Algorithm::kIma);
        if (!server.InstallQuery(0, NetworkPoint{0, 0.5}, 1).ok()) return;
        UpdateBatch terminate;
        terminate.queries.push_back(QueryUpdate{
            0, QueryUpdate::Kind::kTerminate, NetworkPoint{}, 0});
        if (!server.monitor().ProcessTimestamp(terminate).ok()) return;
        UpdateBatch move;
        move.queries.push_back(
            QueryUpdate{0, QueryUpdate::Kind::kMove, NetworkPoint{1, 0.5}, 0});
        (void)server.Tick(move);
      },
      "CKNN_CHECK failed");
}

TEST(ServerTest, RejectedBatchLeavesTheServerConsistent) {
  // Regression: a batch mixing valid object updates with an invalid query
  // update used to apply the object updates to the shared table before the
  // shard rejected the batch, leaving the engines' known sets pointing at
  // table state they never saw (a later rebuild hit a CKNN_CHECK). The
  // whole batch must be rejected untouched, and the server must keep
  // working afterwards.
  for (const Algorithm algo :
       {Algorithm::kIma, Algorithm::kGma, Algorithm::kOvh}) {
    SCOPED_TRACE(AlgorithmName(algo));
    MonitoringServer server(testing::MakeGrid(4), algo);
    ASSERT_TRUE(server.AddObject(1, NetworkPoint{0, 0.5}).ok());
    ASSERT_TRUE(server.InstallQuery(0, NetworkPoint{0, 0.1}, 1).ok());
    UpdateBatch mixed;
    mixed.objects.push_back(
        ObjectUpdate{1, NetworkPoint{0, 0.5}, std::nullopt});  // Valid.
    mixed.queries.push_back(  // Invalid: query 9 was never installed.
        QueryUpdate{9, QueryUpdate::Kind::kTerminate, NetworkPoint{}, 0});
    EXPECT_TRUE(server.Tick(mixed).IsNotFound());
    // The valid half must not have been applied.
    EXPECT_TRUE(server.objects().Contains(1));
    // The server still ticks and maintains results afterwards.
    ASSERT_TRUE(server.MoveObject(1, NetworkPoint{5, 0.25}).ok());
    ASSERT_TRUE(server.UpdateEdgeWeight(0, 2.0).ok());
    const auto* result = server.ResultOf(0);
    ASSERT_NE(result, nullptr);
    ASSERT_EQ(result->size(), 1u);
    EXPECT_EQ((*result)[0].id, 1u);
  }
}

TEST(ServerTest, AggregateMergesObjectUpdates) {
  UpdateBatch batch;
  batch.objects.push_back(
      ObjectUpdate{1, NetworkPoint{0, 0.1}, NetworkPoint{0, 0.2}});
  batch.objects.push_back(
      ObjectUpdate{1, NetworkPoint{0, 0.2}, NetworkPoint{0, 0.3}});
  const UpdateBatch out = MonitoringServer::AggregateBatch(batch);
  ASSERT_EQ(out.objects.size(), 1u);
  EXPECT_DOUBLE_EQ(out.objects[0].old_pos->t, 0.1);
  EXPECT_DOUBLE_EQ(out.objects[0].new_pos->t, 0.3);
}

TEST(ServerTest, AggregateCancelsAppearDisappear) {
  // Validation runs on the raw updates before the fold, so the fold needs
  // no evidence that the chain began with an insert.
  UpdateBatch batch;
  batch.objects.push_back(ObjectUpdate{1, std::nullopt, NetworkPoint{0, 0.2}});
  batch.objects.push_back(ObjectUpdate{1, NetworkPoint{0, 0.2}, std::nullopt});
  const UpdateBatch out = MonitoringServer::AggregateBatch(batch);
  EXPECT_TRUE(out.objects.empty());
}

TEST(ServerTest, CancelledAppearanceOfAnExistingObjectStillRejects) {
  // Regression: insert -> delete of an id the table already holds used to
  // fold to a no-op that was erased before validation, silently accepting
  // a batch whose first update a sequential replay rejects.
  for (const Algorithm algo :
       {Algorithm::kIma, Algorithm::kGma, Algorithm::kOvh}) {
    SCOPED_TRACE(AlgorithmName(algo));
    MonitoringServer server(testing::MakeGrid(3), algo);
    ASSERT_TRUE(server.AddObject(1, NetworkPoint{0, 0.5}).ok());
    UpdateBatch cancelled;
    cancelled.objects.push_back(
        ObjectUpdate{1, std::nullopt, NetworkPoint{1, 0.5}});
    cancelled.objects.push_back(
        ObjectUpdate{1, NetworkPoint{1, 0.5}, std::nullopt});
    EXPECT_TRUE(server.Tick(cancelled).IsAlreadyExists());
    EXPECT_EQ(server.objects().Position(1).value(), (NetworkPoint{0, 0.5}));
    // On a fresh id the same pair is a net no-op the server accepts.
    UpdateBatch fresh;
    fresh.objects.push_back(
        ObjectUpdate{7, std::nullopt, NetworkPoint{1, 0.5}});
    fresh.objects.push_back(
        ObjectUpdate{7, NetworkPoint{1, 0.5}, std::nullopt});
    ASSERT_TRUE(server.Tick(fresh).ok());
    EXPECT_FALSE(server.objects().Contains(7));
  }
}

TEST(ServerTest, AggregateQueryChains) {
  UpdateBatch batch;
  batch.queries.push_back(QueryUpdate{1, QueryUpdate::Kind::kInstall,
                                      NetworkPoint{0, 0.1}, 3});
  batch.queries.push_back(
      QueryUpdate{1, QueryUpdate::Kind::kMove, NetworkPoint{0, 0.9}, 0});
  UpdateBatch out = MonitoringServer::AggregateBatch(batch);
  ASSERT_EQ(out.queries.size(), 1u);
  EXPECT_EQ(out.queries[0].kind, QueryUpdate::Kind::kInstall);
  EXPECT_DOUBLE_EQ(out.queries[0].pos.t, 0.9);
  EXPECT_EQ(out.queries[0].k, 3);
  // Install then terminate: dropped.
  batch.queries.push_back(
      QueryUpdate{1, QueryUpdate::Kind::kTerminate, NetworkPoint{}, 0});
  out = MonitoringServer::AggregateBatch(batch);
  EXPECT_TRUE(out.queries.empty());
  // Move then terminate on an existing query: terminate survives.
  UpdateBatch batch2;
  batch2.queries.push_back(
      QueryUpdate{2, QueryUpdate::Kind::kMove, NetworkPoint{0, 0.5}, 0});
  batch2.queries.push_back(
      QueryUpdate{2, QueryUpdate::Kind::kTerminate, NetworkPoint{}, 0});
  out = MonitoringServer::AggregateBatch(batch2);
  ASSERT_EQ(out.queries.size(), 1u);
  EXPECT_EQ(out.queries[0].kind, QueryUpdate::Kind::kTerminate);
}

TEST(ServerTest, AggregateEdgeLastWins) {
  UpdateBatch batch;
  batch.edges.push_back(EdgeUpdate{4, 2.0});
  batch.edges.push_back(EdgeUpdate{4, 3.0});
  const UpdateBatch out = MonitoringServer::AggregateBatch(batch);
  ASSERT_EQ(out.edges.size(), 1u);
  EXPECT_DOUBLE_EQ(out.edges[0].new_weight, 3.0);
}

TEST(ServerTest, SnapUsesSpatialIndex) {
  MonitoringServer server(testing::MakeGrid(3), Algorithm::kOvh);
  // Point near the middle of edge 0 (from (0,0) to (1,0)).
  auto snapped = server.Snap(Point{0.5, 0.05});
  ASSERT_TRUE(snapped.ok());
  EXPECT_EQ(snapped->edge, 0u);
  EXPECT_NEAR(snapped->t, 0.5, 1e-9);
}

TEST(ServerTest, AlgorithmNames) {
  EXPECT_STREQ(AlgorithmName(Algorithm::kIma), "IMA");
  EXPECT_STREQ(AlgorithmName(Algorithm::kGma), "GMA");
  EXPECT_STREQ(AlgorithmName(Algorithm::kOvh), "OVH");
  MonitoringServer server(testing::MakeGrid(2), Algorithm::kGma);
  EXPECT_EQ(server.monitor().name(), "GMA");
  EXPECT_EQ(server.algorithm(), Algorithm::kGma);
}

TEST(ServerTest, MonitorMemoryBytesNonZeroWithQueries) {
  MonitoringServer server(testing::MakeGrid(4), Algorithm::kIma);
  ASSERT_TRUE(server.AddObject(1, NetworkPoint{2, 0.5}).ok());
  ASSERT_TRUE(server.InstallQuery(0, NetworkPoint{0, 0.5}, 1).ok());
  EXPECT_GT(server.MonitorMemoryBytes(), 0u);
}

TEST(ServerTest, MemoryBytesCoversMonitorsTableAndNetwork) {
  for (const Algorithm algo :
       {Algorithm::kOvh, Algorithm::kIma, Algorithm::kGma}) {
    MonitoringServer server(testing::MakeGrid(6), algo, /*num_shards=*/2);
    for (ObjectId id = 0; id < 20; ++id) {
      ASSERT_TRUE(server.AddObject(id, NetworkPoint{id, 0.5}).ok());
    }
    ASSERT_TRUE(server.InstallQuery(0, NetworkPoint{3, 0.25}, 3).ok());
    ASSERT_TRUE(server.InstallQuery(1, NetworkPoint{30, 0.75}, 2).ok());
    EXPECT_GE(server.MemoryBytes(),
              server.MonitorMemoryBytes() + server.objects().MemoryBytes() +
                  server.network().MemoryBytes())
        << AlgorithmName(algo);
  }
}

}  // namespace
}  // namespace cknn
