// Section 4.5 preprocessing through the server's Tick path: when one
// entity issues several updates in a single timestamp, the batch handed to
// the algorithm must collapse to the last-write state — for every
// algorithm, and with the same observable outcome as submitting the
// collapsed update directly. A batch that a one-update-per-tick replay
// rejects is rejected whole, with the replay's status code, and leaves the
// server untouched.

#include <limits>
#include <memory>
#include <string>

#include "gtest/gtest.h"
#include "src/core/server.h"
#include "src/util/macros.h"
#include "tests/test_util.h"

namespace cknn {
namespace {

class TickAggregationTest : public ::testing::TestWithParam<Algorithm> {
 protected:
  /// Fresh server on a 4x4 unit grid with two objects and one 2-NN query.
  std::unique_ptr<MonitoringServer> MakeServer() {
    auto server = std::make_unique<MonitoringServer>(testing::MakeGrid(4),
                                                     GetParam());
    EXPECT_TRUE(server->AddObject(0, NetworkPoint{0, 0.25}).ok());
    EXPECT_TRUE(server->AddObject(1, NetworkPoint{10, 0.5}).ok());
    EXPECT_TRUE(server->InstallQuery(0, NetworkPoint{2, 0.5}, 2).ok());
    return server;
  }

  /// Status of replaying `batch` one update per Tick on a fresh server
  /// (streams in order: objects, queries, edges), stopping at the first
  /// rejected update.
  Status ReplayOneByOne(const UpdateBatch& batch) {
    auto server = MakeServer();
    UpdateBatch one;
    for (const ObjectUpdate& u : batch.objects) {
      one.objects = {u};
      CKNN_RETURN_NOT_OK(server->Tick(one));
    }
    one.objects.clear();
    for (const QueryUpdate& u : batch.queries) {
      one.queries = {u};
      CKNN_RETURN_NOT_OK(server->Tick(one));
    }
    one.queries.clear();
    for (const EdgeUpdate& u : batch.edges) {
      one.edges = {u};
      CKNN_RETURN_NOT_OK(server->Tick(one));
    }
    return Status::OK();
  }

  /// `Tick(batch)` must fail with the replay's status code `expected` and
  /// leave the server exactly as it was.
  void ExpectRejectedUntouched(const UpdateBatch& batch, StatusCode expected) {
    EXPECT_EQ(ReplayOneByOne(batch).code(), expected);
    auto server = MakeServer();
    auto untouched = MakeServer();
    EXPECT_EQ(server->Tick(batch).code(), expected);
    EXPECT_EQ(server->timestamp(), untouched->timestamp());
    EXPECT_EQ(server->objects().size(), untouched->objects().size());
    for (ObjectId id : {ObjectId{0}, ObjectId{1}}) {
      EXPECT_EQ(server->objects().Position(id).value(),
                untouched->objects().Position(id).value());
    }
    EXPECT_EQ(server->NumQueries(), untouched->NumQueries());
    for (EdgeId e = 0; e < server->network().NumEdges(); ++e) {
      EXPECT_EQ(server->network().edge(e).weight,
                untouched->network().edge(e).weight);
    }
    ExpectSameResult(*server, *untouched);
  }

  /// Both servers must expose identical query-0 results.
  void ExpectSameResult(const MonitoringServer& a, const MonitoringServer& b) {
    const auto* ra = a.ResultOf(0);
    const auto* rb = b.ResultOf(0);
    ASSERT_NE(ra, nullptr);
    ASSERT_NE(rb, nullptr);
    EXPECT_EQ(*ra, *rb);
  }
};

TEST_P(TickAggregationTest, ChainedObjectMovesCollapseToLastWrite) {
  auto chained = MakeServer();
  auto collapsed = MakeServer();
  UpdateBatch batch;
  batch.objects.push_back(
      ObjectUpdate{0, NetworkPoint{0, 0.25}, NetworkPoint{5, 0.5}});
  batch.objects.push_back(
      ObjectUpdate{0, NetworkPoint{5, 0.5}, NetworkPoint{9, 0.75}});
  batch.objects.push_back(
      ObjectUpdate{0, NetworkPoint{9, 0.75}, NetworkPoint{14, 0.5}});
  ASSERT_TRUE(chained->Tick(batch).ok());

  UpdateBatch single;
  single.objects.push_back(
      ObjectUpdate{0, NetworkPoint{0, 0.25}, NetworkPoint{14, 0.5}});
  ASSERT_TRUE(collapsed->Tick(single).ok());

  EXPECT_EQ(chained->objects().Position(0).value(), (NetworkPoint{14, 0.5}));
  ExpectSameResult(*chained, *collapsed);
  // One batch, one timestamp — regardless of how many updates it carried.
  EXPECT_EQ(chained->timestamp(), collapsed->timestamp());
}

TEST_P(TickAggregationTest, AppearThenMoveCollapsesToFinalAppearance) {
  auto chained = MakeServer();
  auto collapsed = MakeServer();
  UpdateBatch batch;
  batch.objects.push_back(ObjectUpdate{7, std::nullopt, NetworkPoint{4, 0.5}});
  batch.objects.push_back(
      ObjectUpdate{7, NetworkPoint{4, 0.5}, NetworkPoint{2, 0.25}});
  ASSERT_TRUE(chained->Tick(batch).ok());

  UpdateBatch single;
  single.objects.push_back(
      ObjectUpdate{7, std::nullopt, NetworkPoint{2, 0.25}});
  ASSERT_TRUE(collapsed->Tick(single).ok());

  EXPECT_EQ(chained->objects().Position(7).value(), (NetworkPoint{2, 0.25}));
  ExpectSameResult(*chained, *collapsed);
}

TEST_P(TickAggregationTest, MoveThenDisappearRemovesTheObject) {
  auto server = MakeServer();
  UpdateBatch batch;
  batch.objects.push_back(
      ObjectUpdate{0, NetworkPoint{0, 0.25}, NetworkPoint{5, 0.5}});
  batch.objects.push_back(
      ObjectUpdate{0, NetworkPoint{5, 0.5}, std::nullopt});
  ASSERT_TRUE(server->Tick(batch).ok());
  EXPECT_FALSE(server->objects().Contains(0));
  const auto* result = server->ResultOf(0);
  ASSERT_NE(result, nullptr);
  ASSERT_EQ(result->size(), 1u);  // Only object 1 remains.
  EXPECT_EQ((*result)[0].id, 1u);
}

TEST_P(TickAggregationTest, RepeatedEdgeWeightUpdatesLastWriteWins) {
  auto chained = MakeServer();
  auto collapsed = MakeServer();
  UpdateBatch batch;
  batch.edges.push_back(EdgeUpdate{2, 9.0});
  batch.edges.push_back(EdgeUpdate{2, 0.5});
  batch.edges.push_back(EdgeUpdate{2, 3.25});
  batch.edges.push_back(EdgeUpdate{7, 2.0});  // Another edge rides along.
  ASSERT_TRUE(chained->Tick(batch).ok());

  UpdateBatch single;
  single.edges.push_back(EdgeUpdate{2, 3.25});
  single.edges.push_back(EdgeUpdate{7, 2.0});
  ASSERT_TRUE(collapsed->Tick(single).ok());

  EXPECT_DOUBLE_EQ(chained->network().edge(2).weight, 3.25);
  EXPECT_DOUBLE_EQ(chained->network().edge(7).weight, 2.0);
  ExpectSameResult(*chained, *collapsed);
}

TEST_P(TickAggregationTest, ChainedQueryMovesCollapseToLastWrite) {
  auto chained = MakeServer();
  auto collapsed = MakeServer();
  UpdateBatch batch;
  batch.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kMove, NetworkPoint{8, 0.5}, 0});
  batch.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kMove, NetworkPoint{12, 0.75}, 0});
  ASSERT_TRUE(chained->Tick(batch).ok());

  UpdateBatch single;
  single.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kMove, NetworkPoint{12, 0.75}, 0});
  ASSERT_TRUE(collapsed->Tick(single).ok());
  ExpectSameResult(*chained, *collapsed);
}

TEST_P(TickAggregationTest, InstallMoveTerminateWithinOneTickIsANoOp) {
  auto server = MakeServer();
  const std::size_t queries_before = server->monitor().NumQueries();
  UpdateBatch batch;
  batch.queries.push_back(
      QueryUpdate{5, QueryUpdate::Kind::kInstall, NetworkPoint{1, 0.5}, 3});
  batch.queries.push_back(
      QueryUpdate{5, QueryUpdate::Kind::kMove, NetworkPoint{3, 0.5}, 0});
  batch.queries.push_back(
      QueryUpdate{5, QueryUpdate::Kind::kTerminate, NetworkPoint{}, 0});
  ASSERT_TRUE(server->Tick(batch).ok());
  EXPECT_EQ(server->ResultOf(5), nullptr);
  EXPECT_EQ(server->monitor().NumQueries(), queries_before);
}

TEST_P(TickAggregationTest, TerminateThenReinstallKeepsTheQueryAlive) {
  // Regression: the pre-fix collapse rules folded terminate→install into a
  // bare install of a still-registered id, which every algorithm rejects
  // with AlreadyExists. The net effect must be a re-installation.
  auto chained = MakeServer();
  auto sequential = MakeServer();
  UpdateBatch batch;
  batch.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kTerminate, NetworkPoint{}, 0});
  batch.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kInstall, NetworkPoint{6, 0.5}, 1});
  ASSERT_TRUE(chained->Tick(batch).ok());

  ASSERT_TRUE(sequential->TerminateQuery(0).ok());
  ASSERT_TRUE(sequential->InstallQuery(0, NetworkPoint{6, 0.5}, 1).ok());
  ExpectSameResult(*chained, *sequential);
  EXPECT_EQ(chained->NumQueries(), 1u);
}

TEST_P(TickAggregationTest, MoveTerminateReinstallMoveCollapses) {
  // The "move-after-reinstall" chain of the issue: the final state is a
  // fresh installation at the last position with the reinstall's k.
  auto chained = MakeServer();
  auto sequential = MakeServer();
  UpdateBatch batch;
  batch.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kMove, NetworkPoint{8, 0.5}, 0});
  batch.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kTerminate, NetworkPoint{}, 0});
  batch.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kInstall, NetworkPoint{3, 0.25}, 1});
  batch.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kMove, NetworkPoint{12, 0.75}, 0});
  ASSERT_TRUE(chained->Tick(batch).ok());

  ASSERT_TRUE(
      sequential->MoveQuery(0, NetworkPoint{8, 0.5}).ok());
  ASSERT_TRUE(sequential->TerminateQuery(0).ok());
  ASSERT_TRUE(sequential->InstallQuery(0, NetworkPoint{3, 0.25}, 1).ok());
  ASSERT_TRUE(sequential->MoveQuery(0, NetworkPoint{12, 0.75}).ok());
  ExpectSameResult(*chained, *sequential);
}

TEST_P(TickAggregationTest, TerminateReinstallTerminateIsATerminate) {
  // Regression: the pre-fix rules dropped this chain entirely (treating it
  // as a no-op), leaving the original query registered.
  auto server = MakeServer();
  UpdateBatch batch;
  batch.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kTerminate, NetworkPoint{}, 0});
  batch.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kInstall, NetworkPoint{6, 0.5}, 2});
  batch.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kTerminate, NetworkPoint{}, 0});
  ASSERT_TRUE(server->Tick(batch).ok());
  EXPECT_EQ(server->ResultOf(0), nullptr);
  EXPECT_EQ(server->NumQueries(), 0u);
}

TEST(AggregateBatchTest, TerminateReinstallEmitsTerminateThenInstall) {
  UpdateBatch batch;
  batch.queries.push_back(
      QueryUpdate{4, QueryUpdate::Kind::kTerminate, NetworkPoint{}, 0});
  batch.queries.push_back(
      QueryUpdate{4, QueryUpdate::Kind::kInstall, NetworkPoint{1, 0.5}, 3});
  batch.queries.push_back(
      QueryUpdate{4, QueryUpdate::Kind::kMove, NetworkPoint{2, 0.25}, 0});
  const UpdateBatch out = MonitoringServer::AggregateBatch(batch);
  ASSERT_EQ(out.queries.size(), 2u);
  EXPECT_EQ(out.queries[0].kind, QueryUpdate::Kind::kTerminate);
  EXPECT_EQ(out.queries[0].id, 4u);
  EXPECT_EQ(out.queries[1].kind, QueryUpdate::Kind::kInstall);
  EXPECT_EQ(out.queries[1].id, 4u);
  EXPECT_EQ(out.queries[1].pos, (NetworkPoint{2, 0.25}));
  EXPECT_EQ(out.queries[1].k, 3);
}

TEST_P(TickAggregationTest, InstallOfAliveQueryStillSurfacesAlreadyExists) {
  // [move, install] of a registered query is invalid sequential input; the
  // collapse must not quietly turn it into a move (losing the install's k
  // and the error) — the algorithms reject it like a sequential replay.
  auto server = MakeServer();
  UpdateBatch batch;
  batch.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kMove, NetworkPoint{8, 0.5}, 0});
  batch.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kInstall, NetworkPoint{3, 0.25}, 5});
  EXPECT_TRUE(server->Tick(batch).IsAlreadyExists());
}

TEST_P(TickAggregationTest, DuplicateInstallOfNewQuerySurfacesAlreadyExists) {
  // [install, install] of a within-tick-new id is invalid sequential input
  // (the second install would be rejected); the batch is rejected whole.
  auto server = MakeServer();
  UpdateBatch batch;
  batch.queries.push_back(
      QueryUpdate{5, QueryUpdate::Kind::kInstall, NetworkPoint{1, 0.5}, 1});
  batch.queries.push_back(
      QueryUpdate{5, QueryUpdate::Kind::kInstall, NetworkPoint{3, 0.25}, 5});
  EXPECT_TRUE(server->Tick(batch).IsAlreadyExists());
  EXPECT_EQ(server->ResultOf(5), nullptr);
}

TEST_P(TickAggregationTest, InconsistentObjectChainIsRejectedUntouched) {
  // insert@p1 -> move(old=p999 -> p2): the old position contradicts the
  // running chain. Folding the pair would launder it into a plausible
  // insert@p2; the replay rejects the move.
  UpdateBatch batch;
  batch.objects.push_back(ObjectUpdate{7, std::nullopt, NetworkPoint{0, 0.1}});
  batch.objects.push_back(
      ObjectUpdate{7, NetworkPoint{9, 0.9}, NetworkPoint{0, 0.2}});
  ExpectRejectedUntouched(batch, StatusCode::kInvalidArgument);
}

TEST_P(TickAggregationTest, BrokenChainIsRejectedUntouched) {
  // insert -> delete -> move: the prefix cancels out, but the move of the
  // now-absent object is where the replay fails.
  UpdateBatch batch;
  batch.objects.push_back(ObjectUpdate{7, std::nullopt, NetworkPoint{0, 0.1}});
  batch.objects.push_back(ObjectUpdate{7, NetworkPoint{0, 0.1}, std::nullopt});
  batch.objects.push_back(
      ObjectUpdate{7, NetworkPoint{9, 0.9}, NetworkPoint{0, 0.2}});
  ExpectRejectedUntouched(batch, StatusCode::kNotFound);
}

// Laundering: an invalid update followed by a valid one of the same
// entity. A fold that kept only the last link would accept each batch.

TEST_P(TickAggregationTest, ObjectInsertOnUnknownEdgeThenMoveIsRejected) {
  UpdateBatch batch;
  batch.objects.push_back(
      ObjectUpdate{7, std::nullopt, NetworkPoint{999, 0.5}});
  batch.objects.push_back(
      ObjectUpdate{7, NetworkPoint{999, 0.5}, NetworkPoint{3, 0.5}});
  ExpectRejectedUntouched(batch, StatusCode::kInvalidArgument);
}

TEST_P(TickAggregationTest, ObjectMoveOffTheEdgeThenMoveIsRejected) {
  UpdateBatch batch;
  batch.objects.push_back(
      ObjectUpdate{0, NetworkPoint{0, 0.25}, NetworkPoint{5, 1.5}});
  batch.objects.push_back(
      ObjectUpdate{0, NetworkPoint{5, 1.5}, NetworkPoint{5, 0.5}});
  ExpectRejectedUntouched(batch, StatusCode::kInvalidArgument);
}

TEST_P(TickAggregationTest, QueryInstallOnUnknownEdgeThenMoveIsRejected) {
  UpdateBatch batch;
  batch.queries.push_back(
      QueryUpdate{5, QueryUpdate::Kind::kInstall, NetworkPoint{999, 0.5}, 2});
  batch.queries.push_back(
      QueryUpdate{5, QueryUpdate::Kind::kMove, NetworkPoint{3, 0.5}, 0});
  ExpectRejectedUntouched(batch, StatusCode::kInvalidArgument);
}

TEST_P(TickAggregationTest, QueryInstallWithZeroKThenTerminateIsRejected) {
  UpdateBatch batch;
  batch.queries.push_back(
      QueryUpdate{5, QueryUpdate::Kind::kInstall, NetworkPoint{3, 0.5}, 0});
  batch.queries.push_back(
      QueryUpdate{5, QueryUpdate::Kind::kTerminate, NetworkPoint{}, 0});
  ExpectRejectedUntouched(batch, StatusCode::kInvalidArgument);
}

TEST_P(TickAggregationTest, NaNEdgeWeightThenValidWeightIsRejected) {
  UpdateBatch batch;
  batch.edges.push_back(
      EdgeUpdate{2, std::numeric_limits<double>::quiet_NaN()});
  batch.edges.push_back(EdgeUpdate{2, 2.0});
  ExpectRejectedUntouched(batch, StatusCode::kInvalidArgument);
}

TEST_P(TickAggregationTest, NegativeEdgeWeightThenValidWeightIsRejected) {
  UpdateBatch batch;
  batch.edges.push_back(EdgeUpdate{2, -1.0});
  batch.edges.push_back(EdgeUpdate{2, 2.0});
  ExpectRejectedUntouched(batch, StatusCode::kInvalidArgument);
}

TEST(AggregateBatchTest, NoOpObjectUpdateDoesNotPoisonTheChain) {
  // An update with neither position is a no-op at any table state
  // (ObjectTable::Apply); it must neither survive aggregation nor count
  // as evidence that the object is absent.
  UpdateBatch batch;
  batch.objects.push_back(ObjectUpdate{1, std::nullopt, std::nullopt});
  batch.objects.push_back(
      ObjectUpdate{1, NetworkPoint{0, 0.5}, NetworkPoint{0, 0.75}});
  const UpdateBatch out = MonitoringServer::AggregateBatch(batch);
  ASSERT_EQ(out.objects.size(), 1u);
  EXPECT_EQ(out.objects[0], batch.objects[1]);
}

TEST(AggregateBatchTest, MoveChainStaysASingleMove) {
  UpdateBatch batch;
  batch.queries.push_back(
      QueryUpdate{1, QueryUpdate::Kind::kMove, NetworkPoint{1, 0.5}, 0});
  batch.queries.push_back(
      QueryUpdate{1, QueryUpdate::Kind::kMove, NetworkPoint{2, 0.5}, 0});
  const UpdateBatch out = MonitoringServer::AggregateBatch(batch);
  ASSERT_EQ(out.queries.size(), 1u);
  EXPECT_EQ(out.queries[0].kind, QueryUpdate::Kind::kMove);
  EXPECT_EQ(out.queries[0].pos, (NetworkPoint{2, 0.5}));
}

TEST(AggregateBatchTest, InstallTerminateCancelsOut) {
  UpdateBatch batch;
  batch.queries.push_back(
      QueryUpdate{9, QueryUpdate::Kind::kInstall, NetworkPoint{1, 0.5}, 2});
  batch.queries.push_back(
      QueryUpdate{9, QueryUpdate::Kind::kMove, NetworkPoint{2, 0.5}, 0});
  batch.queries.push_back(
      QueryUpdate{9, QueryUpdate::Kind::kTerminate, NetworkPoint{}, 0});
  const UpdateBatch out = MonitoringServer::AggregateBatch(batch);
  EXPECT_TRUE(out.queries.empty());
}

TEST_P(TickAggregationTest, MixedEntitiesAggregateIndependently) {
  auto chained = MakeServer();
  auto collapsed = MakeServer();
  UpdateBatch batch;
  batch.objects.push_back(
      ObjectUpdate{0, NetworkPoint{0, 0.25}, NetworkPoint{1, 0.5}});
  batch.objects.push_back(
      ObjectUpdate{0, NetworkPoint{1, 0.5}, NetworkPoint{1, 0.75}});
  batch.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kMove, NetworkPoint{4, 0.5}, 0});
  batch.edges.push_back(EdgeUpdate{1, 4.0});
  batch.edges.push_back(EdgeUpdate{1, 1.5});
  ASSERT_TRUE(chained->Tick(batch).ok());

  UpdateBatch single;
  single.objects.push_back(
      ObjectUpdate{0, NetworkPoint{0, 0.25}, NetworkPoint{1, 0.75}});
  single.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kMove, NetworkPoint{4, 0.5}, 0});
  single.edges.push_back(EdgeUpdate{1, 1.5});
  ASSERT_TRUE(collapsed->Tick(single).ok());

  EXPECT_EQ(chained->objects().Position(0).value(), (NetworkPoint{1, 0.75}));
  EXPECT_DOUBLE_EQ(chained->network().edge(1).weight, 1.5);
  ExpectSameResult(*chained, *collapsed);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, TickAggregationTest,
                         ::testing::Values(Algorithm::kIma, Algorithm::kGma,
                                           Algorithm::kOvh),
                         [](const ::testing::TestParamInfo<Algorithm>& info) {
                           return std::string(AlgorithmName(info.param));
                         });

}  // namespace
}  // namespace cknn
