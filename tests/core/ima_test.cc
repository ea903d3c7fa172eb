#include "src/core/ima.h"

#include "gtest/gtest.h"
#include "src/core/ovh.h"
#include "src/core/server.h"
#include "src/gen/network_gen.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace cknn {
namespace {

/// Runs the same batch against an IMA server and an OVH server and checks
/// that all query results agree (as distance multisets).
class ImaVsOvhFixture : public ::testing::Test {
 protected:
  void Init(RoadNetwork net) {
    ima_ = std::make_unique<MonitoringServer>(net.SharedView(),
                                              Algorithm::kIma);
    ovh_ = std::make_unique<MonitoringServer>(std::move(net),
                                              Algorithm::kOvh);
  }

  void Tick(const UpdateBatch& batch) {
    ASSERT_TRUE(ima_->Tick(batch).ok());
    ASSERT_TRUE(ovh_->Tick(batch).ok());
  }

  void ExpectAgreement(const std::vector<QueryId>& queries) {
    for (QueryId q : queries) {
      const auto* a = ima_->ResultOf(q);
      const auto* b = ovh_->ResultOf(q);
      ASSERT_NE(a, nullptr);
      ASSERT_NE(b, nullptr);
      testing::ExpectSameDistances(*a, *b);
    }
  }

  std::unique_ptr<MonitoringServer> ima_;
  std::unique_ptr<MonitoringServer> ovh_;
};

TEST_F(ImaVsOvhFixture, InitialResultOnGrid) {
  Init(testing::MakeGrid(4));
  UpdateBatch batch;
  for (ObjectId i = 0; i < 8; ++i) {
    batch.objects.push_back(
        ObjectUpdate{i, std::nullopt, NetworkPoint{i * 2, 0.3}});
  }
  batch.queries.push_back(QueryUpdate{0, QueryUpdate::Kind::kInstall,
                                      NetworkPoint{0, 0.5}, 3});
  Tick(batch);
  ExpectAgreement({0});
}

TEST_F(ImaVsOvhFixture, IncomingAndOutgoingObjects) {
  Init(testing::MakeGrid(5));
  UpdateBatch setup;
  for (ObjectId i = 0; i < 10; ++i) {
    setup.objects.push_back(
        ObjectUpdate{i, std::nullopt, NetworkPoint{i * 3, 0.4}});
  }
  setup.queries.push_back(QueryUpdate{0, QueryUpdate::Kind::kInstall,
                                      NetworkPoint{0, 0.2}, 3});
  Tick(setup);
  // Move a previously distant object next to the query (incoming)...
  UpdateBatch in;
  in.objects.push_back(
      ObjectUpdate{9, NetworkPoint{27, 0.4}, NetworkPoint{0, 0.3}});
  Tick(in);
  ExpectAgreement({0});
  // ...then pull the nearest object away (outgoing; forces re-expansion).
  UpdateBatch out;
  out.objects.push_back(
      ObjectUpdate{9, NetworkPoint{0, 0.3}, NetworkPoint{27, 0.9}});
  Tick(out);
  ExpectAgreement({0});
}

TEST_F(ImaVsOvhFixture, ObjectAppearsAndDisappears) {
  Init(testing::MakeGrid(4));
  UpdateBatch setup;
  for (ObjectId i = 0; i < 5; ++i) {
    setup.objects.push_back(
        ObjectUpdate{i, std::nullopt, NetworkPoint{i * 4, 0.6}});
  }
  setup.queries.push_back(QueryUpdate{0, QueryUpdate::Kind::kInstall,
                                      NetworkPoint{2, 0.5}, 2});
  Tick(setup);
  UpdateBatch appear;
  appear.objects.push_back(
      ObjectUpdate{100, std::nullopt, NetworkPoint{2, 0.4}});
  Tick(appear);
  ExpectAgreement({0});
  UpdateBatch vanish;
  vanish.objects.push_back(
      ObjectUpdate{100, NetworkPoint{2, 0.4}, std::nullopt});
  Tick(vanish);
  ExpectAgreement({0});
}

TEST_F(ImaVsOvhFixture, QueryMovesWithinTree) {
  Init(testing::MakeGrid(5));
  UpdateBatch setup;
  for (ObjectId i = 0; i < 12; ++i) {
    setup.objects.push_back(
        ObjectUpdate{i, std::nullopt, NetworkPoint{i * 2 + 1, 0.7}});
  }
  setup.queries.push_back(QueryUpdate{0, QueryUpdate::Kind::kInstall,
                                      NetworkPoint{0, 0.5}, 4});
  Tick(setup);
  // Small move along the same edge (re-root along own edge).
  UpdateBatch move1;
  move1.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kMove, NetworkPoint{0, 0.8}, 0});
  Tick(move1);
  ExpectAgreement({0});
  // Move onto an adjacent covered edge (re-root to subtree).
  UpdateBatch move2;
  move2.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kMove, NetworkPoint{1, 0.3}, 0});
  Tick(move2);
  ExpectAgreement({0});
}

TEST_F(ImaVsOvhFixture, QueryMovesOutsideTree) {
  Init(testing::MakeGrid(6));
  UpdateBatch setup;
  for (ObjectId i = 0; i < 12; ++i) {
    setup.objects.push_back(
        ObjectUpdate{i, std::nullopt, NetworkPoint{i, 0.5}});
  }
  setup.queries.push_back(QueryUpdate{0, QueryUpdate::Kind::kInstall,
                                      NetworkPoint{0, 0.1}, 2});
  Tick(setup);
  // Jump far away: forces recomputation from scratch.
  UpdateBatch jump;
  jump.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kMove,
                  NetworkPoint{static_cast<EdgeId>(
                                   ima_->network().NumEdges() - 1),
                               0.9},
                  0});
  Tick(jump);
  ExpectAgreement({0});
}

TEST_F(ImaVsOvhFixture, EdgeWeightIncreaseOnTreeEdge) {
  Init(testing::MakeGrid(5));
  UpdateBatch setup;
  for (ObjectId i = 0; i < 10; ++i) {
    setup.objects.push_back(
        ObjectUpdate{i, std::nullopt, NetworkPoint{i * 3 + 1, 0.5}});
  }
  setup.queries.push_back(QueryUpdate{0, QueryUpdate::Kind::kInstall,
                                      NetworkPoint{0, 0.5}, 3});
  Tick(setup);
  UpdateBatch bump;
  bump.edges.push_back(EdgeUpdate{1, ima_->network().edge(1).weight * 3.0});
  Tick(bump);
  ExpectAgreement({0});
}

TEST_F(ImaVsOvhFixture, EdgeWeightDecreaseCreatesShortcut) {
  Init(testing::MakeGrid(5));
  UpdateBatch setup;
  for (ObjectId i = 0; i < 10; ++i) {
    setup.objects.push_back(
        ObjectUpdate{i, std::nullopt, NetworkPoint{i * 3 + 1, 0.5}});
  }
  setup.queries.push_back(QueryUpdate{0, QueryUpdate::Kind::kInstall,
                                      NetworkPoint{0, 0.5}, 3});
  Tick(setup);
  UpdateBatch drop;
  drop.edges.push_back(EdgeUpdate{2, ima_->network().edge(2).weight * 0.2});
  Tick(drop);
  ExpectAgreement({0});
}

TEST_F(ImaVsOvhFixture, DecreaseAndIncreaseSameTimestamp) {
  // The Section 4.5 ordering hazard: decreasing weights must be processed
  // before increasing ones.
  Init(testing::MakeGrid(5));
  UpdateBatch setup;
  for (ObjectId i = 0; i < 12; ++i) {
    setup.objects.push_back(
        ObjectUpdate{i, std::nullopt, NetworkPoint{i * 2, 0.5}});
  }
  setup.queries.push_back(QueryUpdate{0, QueryUpdate::Kind::kInstall,
                                      NetworkPoint{0, 0.5}, 4});
  Tick(setup);
  UpdateBatch mixed;
  mixed.edges.push_back(EdgeUpdate{1, ima_->network().edge(1).weight * 2.0});
  mixed.edges.push_back(EdgeUpdate{3, ima_->network().edge(3).weight * 0.3});
  mixed.edges.push_back(EdgeUpdate{5, ima_->network().edge(5).weight * 0.5});
  Tick(mixed);
  ExpectAgreement({0});
}

TEST_F(ImaVsOvhFixture, WeightChangeOfQueryOwnEdge) {
  Init(testing::MakeGrid(4));
  UpdateBatch setup;
  for (ObjectId i = 0; i < 8; ++i) {
    setup.objects.push_back(
        ObjectUpdate{i, std::nullopt, NetworkPoint{i * 2 + 1, 0.5}});
  }
  setup.queries.push_back(QueryUpdate{0, QueryUpdate::Kind::kInstall,
                                      NetworkPoint{0, 0.4}, 3});
  Tick(setup);
  UpdateBatch change;
  change.edges.push_back(EdgeUpdate{0, ima_->network().edge(0).weight * 2.0});
  Tick(change);
  ExpectAgreement({0});
  UpdateBatch change2;
  change2.edges.push_back(
      EdgeUpdate{0, ima_->network().edge(0).weight * 0.25});
  Tick(change2);
  ExpectAgreement({0});
}

TEST_F(ImaVsOvhFixture, ConcurrentEverything) {
  Init(GenerateRoadNetwork(NetworkGenConfig{.target_edges = 200, .seed = 5}));
  Rng rng(77);
  const std::size_t num_edges = ima_->network().NumEdges();
  UpdateBatch setup;
  std::vector<NetworkPoint> obj_pos(40);
  for (ObjectId i = 0; i < obj_pos.size(); ++i) {
    obj_pos[i] = NetworkPoint{static_cast<EdgeId>(rng.NextIndex(num_edges)),
                              rng.NextDouble()};
    setup.objects.push_back(ObjectUpdate{i, std::nullopt, obj_pos[i]});
  }
  std::vector<NetworkPoint> qry_pos(6);
  std::vector<QueryId> qids;
  for (QueryId q = 0; q < qry_pos.size(); ++q) {
    qry_pos[q] = NetworkPoint{static_cast<EdgeId>(rng.NextIndex(num_edges)),
                              rng.NextDouble()};
    setup.queries.push_back(
        QueryUpdate{q, QueryUpdate::Kind::kInstall, qry_pos[q], 5});
    qids.push_back(q);
  }
  Tick(setup);
  ExpectAgreement(qids);
  for (int ts = 0; ts < 15; ++ts) {
    UpdateBatch batch;
    // A mix of all three update types in every timestamp.
    for (ObjectId i = 0; i < obj_pos.size(); ++i) {
      if (!rng.NextBool(0.3)) continue;
      const NetworkPoint next{
          static_cast<EdgeId>(rng.NextIndex(num_edges)), rng.NextDouble()};
      batch.objects.push_back(ObjectUpdate{i, obj_pos[i], next});
      obj_pos[i] = next;
    }
    for (QueryId q = 0; q < qry_pos.size(); ++q) {
      if (!rng.NextBool(0.3)) continue;
      qry_pos[q] = NetworkPoint{
          static_cast<EdgeId>(rng.NextIndex(num_edges)), rng.NextDouble()};
      batch.queries.push_back(
          QueryUpdate{q, QueryUpdate::Kind::kMove, qry_pos[q], 0});
    }
    for (int e = 0; e < 8; ++e) {
      const EdgeId edge = static_cast<EdgeId>(rng.NextIndex(num_edges));
      batch.edges.push_back(EdgeUpdate{
          edge, ima_->network().edge(edge).weight *
                    (rng.NextBool(0.5) ? 1.1 : 0.9)});
    }
    Tick(batch);
    ExpectAgreement(qids);
  }
}

TEST(ImaEngineTest, InfluenceFilteringIgnoresIrrelevantUpdates) {
  RoadNetwork net = testing::MakeGrid(8);
  ObjectTable objects(net.NumEdges());
  ImaEngine engine(&net, &objects);
  // Objects clustered near the query; one far away.
  objects.Insert(0, NetworkPoint{0, 0.5});
  objects.Insert(1, NetworkPoint{1, 0.5});
  const EdgeId far_edge = static_cast<EdgeId>(net.NumEdges() - 1);
  objects.Insert(2, NetworkPoint{far_edge, 0.5});
  engine.AddQuery(0, ExpansionSource::AtPoint(NetworkPoint{0, 0.1}), 2);
  // Far object wiggles: must be ignored.
  const auto before = engine.stats().updates_ignored;
  std::vector<ObjectUpdate> updates{ObjectUpdate{
      2, NetworkPoint{far_edge, 0.5}, NetworkPoint{far_edge, 0.6}}};
  testing::ApplyObjectUpdates(updates, &objects);
  const auto changed = engine.ProcessUpdates(updates, {}, {});
  EXPECT_TRUE(changed.empty());
  EXPECT_EQ(engine.stats().updates_ignored, before + 1);
}

TEST(ImaEngineTest, AddRemoveQueryLifecycle) {
  RoadNetwork net = testing::MakeGrid(4);
  ObjectTable objects(net.NumEdges());
  objects.Insert(0, NetworkPoint{3, 0.5});
  ImaEngine engine(&net, &objects);
  engine.AddQuery(1, ExpansionSource::AtPoint(NetworkPoint{0, 0.5}), 1);
  // The server admits only new ids, k >= 1 and removals of registered
  // queries; the engine asserts those preconditions.
  EXPECT_DEATH(
      engine.AddQuery(1, ExpansionSource::AtPoint(NetworkPoint{0, 0.5}), 1),
      "CKNN_CHECK failed");
  EXPECT_DEATH(
      engine.AddQuery(2, ExpansionSource::AtPoint(NetworkPoint{0, 0.5}), 0),
      "CKNN_CHECK failed");
  EXPECT_TRUE(engine.HasQuery(1));
  ASSERT_NE(engine.ResultOf(1), nullptr);
  EXPECT_EQ(engine.ResultOf(1)->size(), 1u);
  engine.RemoveQuery(1);
  EXPECT_DEATH(engine.RemoveQuery(1), "CKNN_CHECK failed");
  EXPECT_EQ(engine.ResultOf(1), nullptr);
}

TEST(ImaEngineTest, SetKGrowsAndShrinks) {
  RoadNetwork net = testing::MakeGrid(5);
  ObjectTable objects(net.NumEdges());
  for (ObjectId i = 0; i < 10; ++i) {
    objects.Insert(i, NetworkPoint{i * 2, 0.5});
  }
  ImaEngine engine(&net, &objects);
  engine.AddQuery(0, ExpansionSource::AtPoint(NetworkPoint{0, 0.5}), 2);
  const auto two = *engine.ResultOf(0);
  EXPECT_TRUE(engine.SetK(0, 6));  // The result grew.
  EXPECT_EQ(engine.ResultOf(0)->size(), 6u);
  // Prefix stability: the first two neighbors are unchanged.
  testing::ExpectSameDistances(
      two, {engine.ResultOf(0)->begin(), engine.ResultOf(0)->begin() + 2});
  EXPECT_TRUE(engine.SetK(0, 1));
  EXPECT_EQ(engine.ResultOf(0)->size(), 1u);
  EXPECT_EQ(engine.KOf(0), 1);
}

TEST(ImaEngineTest, SetKMidStreamContinuesFromTheLiveFrontier) {
  // Regression for the growing-k path (issue 4): after a stream of object
  // moves and weight changes has reshaped the expansion tree — including
  // the lazy shrink that prunes the tree down to 1.3x the bound — growing
  // and shrinking k must continue from the live frontier and land exactly
  // where a freshly built engine with the same k lands.
  RoadNetwork net = testing::MakeGrid(6);
  const std::size_t num_edges = net.NumEdges();
  ObjectTable objects(net.NumEdges());
  Rng rng(2024);
  std::vector<NetworkPoint> pos(14);
  for (ObjectId i = 0; i < pos.size(); ++i) {
    pos[i] = NetworkPoint{static_cast<EdgeId>(rng.NextIndex(num_edges)),
                          rng.NextDouble()};
    objects.Insert(i, pos[i]);
  }
  ImaEngine engine(&net, &objects);
  const NetworkPoint query{0, 0.5};
  engine.AddQuery(0, ExpansionSource::AtPoint(query), 3);

  const int ks[] = {3, 7, 2, 12, 1, 5};
  for (int round = 0; round < 6; ++round) {
    // A few object moves and weight wobbles between k changes.
    std::vector<ObjectUpdate> object_updates;
    for (int m = 0; m < 3; ++m) {
      const ObjectId id = static_cast<ObjectId>(rng.NextIndex(pos.size()));
      const NetworkPoint to{static_cast<EdgeId>(rng.NextIndex(num_edges)),
                            rng.NextDouble()};
      bool already = false;  // One update per object per batch.
      for (const ObjectUpdate& u : object_updates) {
        already |= u.id == id;
      }
      if (already) continue;
      object_updates.push_back(ObjectUpdate{id, pos[id], to});
      pos[id] = to;
    }
    std::vector<EdgeUpdate> edge_updates;
    const EdgeId e = static_cast<EdgeId>(rng.NextIndex(num_edges));
    edge_updates.push_back(
        EdgeUpdate{e, net.edge(e).weight * (rng.NextBool(0.5) ? 1.3 : 0.7)});
    testing::ApplyObjectUpdates(object_updates, &objects);
    engine.ProcessUpdates(object_updates, edge_updates, {});

    const int k = ks[round];
    engine.SetK(0, k);
    ASSERT_TRUE(engine.CheckInvariants().ok())
        << "round " << round << ": "
        << engine.CheckInvariants().ToString();

    // Cross-check against an engine built from scratch on the same tables.
    ImaEngine fresh(&net, &objects);
    fresh.AddQuery(0, ExpansionSource::AtPoint(query), k);
    const std::vector<Neighbor>* incremental = engine.ResultOf(0);
    const std::vector<Neighbor>* scratch = fresh.ResultOf(0);
    ASSERT_NE(incremental, nullptr);
    ASSERT_NE(scratch, nullptr);
    EXPECT_TRUE(*incremental == *scratch)
        << "round " << round << " k=" << k << ": incremental result ("
        << incremental->size() << " neighbors) diverged from scratch ("
        << scratch->size() << " neighbors)";
    EXPECT_DOUBLE_EQ(engine.BoundOf(0), fresh.BoundOf(0))
        << "round " << round << " k=" << k;
  }
}

TEST(ImaEngineTest, NodeAnchoredQuery) {
  RoadNetwork net = testing::MakeGrid(4);
  ObjectTable objects(net.NumEdges());
  objects.Insert(0, NetworkPoint{0, 0.25});
  ImaEngine engine(&net, &objects);
  engine.AddQuery(0, ExpansionSource::AtNodeSource(0), 1);
  ASSERT_EQ(engine.ResultOf(0)->size(), 1u);
  EXPECT_NEAR((*engine.ResultOf(0))[0].distance, 0.25, 1e-12);
}

TEST(ImaEngineTest, MemoryGrowsWithQueries) {
  RoadNetwork net = testing::MakeGrid(6);
  ObjectTable objects(net.NumEdges());
  for (ObjectId i = 0; i < 20; ++i) {
    objects.Insert(i, NetworkPoint{i, 0.5});
  }
  ImaEngine engine(&net, &objects);
  const std::size_t empty_bytes = engine.MemoryBytes();
  for (QueryId q = 0; q < 5; ++q) {
    engine.AddQuery(q, ExpansionSource::AtPoint(NetworkPoint{q, 0.5}), 4);
  }
  EXPECT_GT(engine.MemoryBytes(), empty_bytes);
}

}  // namespace
}  // namespace cknn
