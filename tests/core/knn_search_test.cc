#include "src/core/knn_search.h"

#include "gtest/gtest.h"
#include "src/gen/network_gen.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace cknn {
namespace {

TEST(KnnSearchTest, FindsObjectOnSameEdge) {
  RoadNetwork net = testing::MakeGrid(3);
  ObjectTable objects(net.NumEdges());
  objects.Insert(0, NetworkPoint{0, 0.9});
  const auto result = SnapshotKnn(net, objects, NetworkPoint{0, 0.1}, 1);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].id, 0u);
  EXPECT_NEAR(result[0].distance, 0.8, 1e-12);
}

TEST(KnnSearchTest, ObjectOnSameEdgeReachableFasterAround) {
  RoadNetwork net = testing::MakeGrid(2);
  // Make edge 0 (0-1) expensive: direct along-edge is worse than around.
  ASSERT_TRUE(net.SetWeight(0, 10.0).ok());
  ObjectTable objects(net.NumEdges());
  objects.Insert(0, NetworkPoint{0, 1.0});  // At node 1.
  const auto result = SnapshotKnn(net, objects, NetworkPoint{0, 0.0}, 1);
  ASSERT_EQ(result.size(), 1u);
  // Around 0-2-3-1 = 3.0 beats along-edge 10.0.
  EXPECT_NEAR(result[0].distance, 3.0, 1e-12);
}

TEST(KnnSearchTest, DuplicateEncounterKeepsSmallestDistance) {
  // Figure 3(b) situation: both endpoints of an edge verified; the object
  // in between must be reported once with the smaller distance.
  RoadNetwork net = testing::MakeGrid(2);
  ObjectTable objects(net.NumEdges());
  // Object on edge 3 (2-3) close to node 3; query on edge 0.
  EdgeId e23 = kInvalidEdge;
  for (EdgeId e = 0; e < net.NumEdges(); ++e) {
    if ((net.edge(e).u == 2 && net.edge(e).v == 3)) e23 = e;
  }
  ASSERT_NE(e23, kInvalidEdge);
  objects.Insert(0, NetworkPoint{e23, 0.5});
  const auto result = SnapshotKnn(net, objects, NetworkPoint{0, 0.5}, 2);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_NEAR(result[0].distance, 2.0, 1e-12);
}

TEST(KnnSearchTest, KLargerThanObjectCount) {
  RoadNetwork net = testing::MakeGrid(3);
  ObjectTable objects(net.NumEdges());
  objects.Insert(0, NetworkPoint{0, 0.5});
  objects.Insert(1, NetworkPoint{5, 0.5});
  const auto result = SnapshotKnn(net, objects, NetworkPoint{0, 0.0}, 10);
  EXPECT_EQ(result.size(), 2u);  // All reachable objects, fewer than k.
}

TEST(KnnSearchTest, EmptyObjectTable) {
  RoadNetwork net = testing::MakeGrid(3);
  ObjectTable objects(net.NumEdges());
  EXPECT_TRUE(SnapshotKnn(net, objects, NetworkPoint{0, 0.5}, 3).empty());
}

TEST(KnnSearchTest, StatsAreCounted) {
  RoadNetwork net = testing::MakeGrid(4);
  ObjectTable objects(net.NumEdges());
  for (ObjectId i = 0; i < 10; ++i) {
    objects.Insert(i,
                   NetworkPoint{static_cast<EdgeId>(i % net.NumEdges()), 0.3});
  }
  ExpandStats stats;
  SnapshotKnn(net, objects, NetworkPoint{0, 0.5}, 3, &stats);
  EXPECT_GT(stats.nodes_settled, 0u);
  EXPECT_GT(stats.heap_pushes, 0u);
  EXPECT_GT(stats.objects_offered, 0u);
}

TEST(KnnSearchTest, ContinuationAfterGrowingK) {
  RoadNetwork net = testing::MakeGrid(5);
  ObjectTable objects(net.NumEdges());
  Rng rng(3);
  for (ObjectId i = 0; i < 30; ++i) {
    const auto edge = static_cast<EdgeId>(rng.NextIndex(net.NumEdges()));
    objects.Insert(i, NetworkPoint{edge, rng.NextDouble()});
  }
  const NetworkPoint q{0, 0.5};
  ExpansionState state;
  state.ResetToPoint(q);
  Frontier frontier;
  CandidateSet cand;
  ExpandToK(net, objects, 3, &state, &frontier, &cand);
  state.set_bound(cand.KthDist(3));
  // Continue from the live frontier to k=8 and compare against a fresh
  // k=8 search.
  ExpandToK(net, objects, 8, &state, &frontier, &cand);
  const auto grown = cand.TopK(8);
  const auto fresh = SnapshotKnn(net, objects, q, 8);
  testing::ExpectSameDistances(grown, fresh);
}

TEST(KnnSearchTest, FrontierMemoryBytesAccountsPriorityStructure) {
  // Regression: Frontier::MemoryBytes used to count only the pending-label
  // map and ignored the heap entirely, so IMA's reported footprint missed
  // its entire priority structure.
  RoadNetwork net = testing::MakeGrid(6);
  ObjectTable objects(net.NumEdges());
  objects.Insert(0, NetworkPoint{30, 0.5});
  ExpansionState state;
  state.ResetToPoint(NetworkPoint{0, 0.5});
  Frontier frontier;
  CandidateSet cand;
  ExpandToK(net, objects, 1, &state, &frontier, &cand);
  ASSERT_FALSE(frontier.heap.empty());
  EXPECT_GE(frontier.MemoryBytes(),
            frontier.heap.MemoryBytes() + frontier.pending.MemoryBytes());
  EXPECT_GE(frontier.heap.MemoryBytes(),
            frontier.heap.size() * sizeof(IndexedMinHeap::Entry));
}

TEST(KnnSearchTest, ScratchReuseMatchesFreshSearch) {
  RoadNetwork net = testing::MakeGrid(5);
  ObjectTable objects(net.NumEdges());
  Rng rng(11);
  for (ObjectId i = 0; i < 25; ++i) {
    const auto edge = static_cast<EdgeId>(rng.NextIndex(net.NumEdges()));
    objects.Insert(i, NetworkPoint{edge, rng.NextDouble()});
  }
  KnnScratch scratch;
  for (int round = 0; round < 5; ++round) {
    const NetworkPoint q{static_cast<EdgeId>(rng.NextIndex(net.NumEdges())),
                         rng.NextDouble()};
    const int k = 1 + static_cast<int>(rng.NextIndex(6));
    const auto reused = SnapshotKnn(net, objects, q, k, &scratch);
    const auto fresh = SnapshotKnn(net, objects, q, k);
    EXPECT_TRUE(reused == fresh) << "round " << round;
  }
}

/// Property: the Fig. 2 expansion equals the brute-force oracle on random
/// generated networks and object sets, across k values.
class KnnSearchPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(KnnSearchPropertyTest, MatchesBruteForce) {
  const auto [seed, k] = GetParam();
  RoadNetwork net = GenerateRoadNetwork(NetworkGenConfig{
      .target_edges = 250, .seed = static_cast<std::uint64_t>(seed)});
  Rng rng(seed * 101);
  ObjectTable objects(net.NumEdges());
  for (ObjectId i = 0; i < 60; ++i) {
    const auto edge = static_cast<EdgeId>(rng.NextIndex(net.NumEdges()));
    objects.Insert(i, NetworkPoint{edge, rng.NextDouble()});
  }
  // Perturb some weights so weight != length.
  for (int i = 0; i < 40; ++i) {
    const EdgeId e = static_cast<EdgeId>(rng.NextIndex(net.NumEdges()));
    ASSERT_TRUE(
        net.SetWeight(e, net.edge(e).weight * rng.Uniform(0.7, 1.3)).ok());
  }
  for (int trial = 0; trial < 10; ++trial) {
    const NetworkPoint q{static_cast<EdgeId>(rng.NextIndex(net.NumEdges())),
                         rng.NextDouble()};
    const auto got = SnapshotKnn(net, objects, q, k);
    const auto want = testing::BruteForceKnn(net, objects, q, k);
    testing::ExpectSameDistances(got, want);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndK, KnnSearchPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(1, 4, 10, 25)));

}  // namespace
}  // namespace cknn
