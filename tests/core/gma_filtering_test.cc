// Focused tests of GMA's update-filtering machinery (Section 5's
// influencing intervals and active-node change propagation), including a
// regression scenario for the boundary-object bug: the k-th NN defines
// q.kNN_dist, so it always sits exactly on the influencing-interval
// boundary — its departure must still be routed to the query.

#include "gtest/gtest.h"
#include "src/core/gma.h"
#include "tests/test_util.h"

namespace cknn {
namespace {

// A long chain 0-1-2-3-4-5 with spurs at both ends so the chain interior
// forms one sequence with intersection endpoints.
//
//  6   7          8   9
//   \ /            \ /
//    0 -1- 2 -3- 4- 5
class GmaFilteringTest : public ::testing::Test {
 protected:
  GmaFilteringTest() {
    for (int i = 0; i < 6; ++i) {
      net_.AddNode(Point{static_cast<double>(i), 0});
    }
    net_.AddNode(Point{-0.5, 1});  // 6
    net_.AddNode(Point{0.5, 1});   // 7
    net_.AddNode(Point{4.5, 1});   // 8
    net_.AddNode(Point{5.5, 1});   // 9
    for (int i = 0; i < 5; ++i) {
      chain_.push_back(*net_.AddEdge(i, i + 1));
    }
    EXPECT_TRUE(net_.AddEdge(0, 6).ok());
    EXPECT_TRUE(net_.AddEdge(0, 7).ok());
    EXPECT_TRUE(net_.AddEdge(5, 8).ok());
    EXPECT_TRUE(net_.AddEdge(5, 9).ok());
    objects_ = std::make_unique<ObjectTable>(net_.NumEdges());
    gma_ = std::make_unique<Gma>(&net_, objects_.get());
  }

  /// One server tick: the object table first, then the monitor.
  Status Tick(const UpdateBatch& batch) {
    CKNN_RETURN_NOT_OK(
        testing::ApplyObjectUpdates(batch.objects, objects_.get()));
    return gma_->ProcessTimestamp(batch);
  }

  RoadNetwork net_;
  std::vector<EdgeId> chain_;
  std::unique_ptr<ObjectTable> objects_;
  std::unique_ptr<Gma> gma_;
};

TEST_F(GmaFilteringTest, KthNeighborEvictionIsDetected) {
  UpdateBatch setup;
  // Query mid-chain; the 2nd NN defines the bound.
  setup.objects.push_back(ObjectUpdate{1, std::nullopt,
                                       NetworkPoint{chain_[2], 0.7}});
  setup.objects.push_back(ObjectUpdate{2, std::nullopt,
                                       NetworkPoint{chain_[3], 0.8}});
  setup.queries.push_back(QueryUpdate{0, QueryUpdate::Kind::kInstall,
                                      NetworkPoint{chain_[2], 0.5}, 2});
  ASSERT_TRUE(Tick(setup).ok());
  ASSERT_EQ(gma_->ResultOf(0)->size(), 2u);
  EXPECT_EQ((*gma_->ResultOf(0))[1].id, 2u);  // The bound-defining NN.
  // The k-th NN (exactly at the bound) departs far away.
  UpdateBatch away;
  away.objects.push_back(ObjectUpdate{2, NetworkPoint{chain_[3], 0.8},
                                      NetworkPoint{8, 0.5}});
  ASSERT_TRUE(Tick(away).ok());
  const auto& result = *gma_->ResultOf(0);
  ASSERT_EQ(result.size(), 2u);
  // Object 2 is now reachable only via endpoint 5 (if within its NN set) —
  // either way its distance must be the fresh one, not the stale 1.3.
  const auto want =
      testing::BruteForceKnn(net_, *objects_, NetworkPoint{chain_[2], 0.5}, 2);
  testing::ExpectSameDistances(result, want);
}

TEST_F(GmaFilteringTest, WeightChangeWithinReachReevaluates) {
  UpdateBatch setup;
  setup.objects.push_back(ObjectUpdate{1, std::nullopt,
                                       NetworkPoint{chain_[4], 0.5}});
  setup.queries.push_back(QueryUpdate{0, QueryUpdate::Kind::kInstall,
                                      NetworkPoint{chain_[2], 0.2}, 1});
  ASSERT_TRUE(Tick(setup).ok());
  const double before = (*gma_->ResultOf(0))[0].distance;
  // An intermediate chain edge gets more expensive: distance must grow.
  UpdateBatch bump;
  bump.edges.push_back(EdgeUpdate{chain_[3], net_.edge(chain_[3]).weight * 2});
  ASSERT_TRUE(Tick(bump).ok());
  EXPECT_GT((*gma_->ResultOf(0))[0].distance, before);
  const auto want =
      testing::BruteForceKnn(net_, *objects_, NetworkPoint{chain_[2], 0.2}, 1);
  testing::ExpectSameDistances(*gma_->ResultOf(0), want);
}

TEST_F(GmaFilteringTest, WeightChangeBeyondReachIgnored) {
  UpdateBatch setup;
  setup.objects.push_back(ObjectUpdate{1, std::nullopt,
                                       NetworkPoint{chain_[2], 0.6}});
  setup.queries.push_back(QueryUpdate{0, QueryUpdate::Kind::kInstall,
                                      NetworkPoint{chain_[2], 0.5}, 1});
  ASSERT_TRUE(Tick(setup).ok());
  const auto evals = gma_->stats().evaluations;
  // A spur edge far beyond the tiny bound changes weight: the query must
  // not be re-evaluated (though the active nodes may shuffle internally).
  UpdateBatch far;
  far.edges.push_back(EdgeUpdate{8, net_.edge(8).weight * 1.5});
  ASSERT_TRUE(Tick(far).ok());
  EXPECT_EQ(gma_->stats().evaluations, evals);
}

TEST_F(GmaFilteringTest, EndpointNnChangePropagatesOnlyWhenReached) {
  UpdateBatch setup;
  // Sparse data: the query's walk reaches both endpoints (bound large).
  setup.objects.push_back(ObjectUpdate{1, std::nullopt, NetworkPoint{6, 0.9}});
  setup.queries.push_back(QueryUpdate{0, QueryUpdate::Kind::kInstall,
                                      NetworkPoint{chain_[2], 0.5}, 1});
  ASSERT_TRUE(Tick(setup).ok());
  const auto want_before =
      testing::BruteForceKnn(net_, *objects_, NetworkPoint{chain_[2], 0.5}, 1);
  testing::ExpectSameDistances(*gma_->ResultOf(0), want_before);
  // An object appears on a spur beyond endpoint 5 — enters node 5's NN
  // set, which the query consumed: the result must refresh.
  UpdateBatch appear;
  appear.objects.push_back(
      ObjectUpdate{2, std::nullopt, NetworkPoint{8, 0.2}});
  ASSERT_TRUE(Tick(appear).ok());
  const auto want_after =
      testing::BruteForceKnn(net_, *objects_, NetworkPoint{chain_[2], 0.5}, 1);
  testing::ExpectSameDistances(*gma_->ResultOf(0), want_after);
}

TEST_F(GmaFilteringTest, ObjectShufflingBeyondBoundIgnored) {
  UpdateBatch setup;
  setup.objects.push_back(ObjectUpdate{1, std::nullopt,
                                       NetworkPoint{chain_[2], 0.55}});
  setup.objects.push_back(ObjectUpdate{2, std::nullopt, NetworkPoint{8, 0.5}});
  setup.queries.push_back(QueryUpdate{0, QueryUpdate::Kind::kInstall,
                                      NetworkPoint{chain_[2], 0.5}, 1});
  ASSERT_TRUE(Tick(setup).ok());
  const auto evals = gma_->stats().evaluations;
  // Far object wiggles on its spur: no interval contains it, no monitored
  // NN set changes.
  UpdateBatch wiggle;
  wiggle.objects.push_back(
      ObjectUpdate{2, NetworkPoint{8, 0.5}, NetworkPoint{8, 0.6}});
  ASSERT_TRUE(Tick(wiggle).ok());
  EXPECT_EQ(gma_->stats().evaluations, evals);
}

TEST_F(GmaFilteringTest, GrowingKOfColocatedQueryLiftsNodeK) {
  UpdateBatch setup;
  for (ObjectId i = 0; i < 6; ++i) {
    setup.objects.push_back(ObjectUpdate{
        i, std::nullopt, NetworkPoint{chain_[i % chain_.size()], 0.3}});
  }
  setup.queries.push_back(QueryUpdate{0, QueryUpdate::Kind::kInstall,
                                      NetworkPoint{chain_[1], 0.5}, 1});
  ASSERT_TRUE(Tick(setup).ok());
  const int k_before = gma_->engine().KOf(0);  // Node 0 active.
  UpdateBatch more;
  more.queries.push_back(QueryUpdate{1, QueryUpdate::Kind::kInstall,
                                     NetworkPoint{chain_[3], 0.5}, 4});
  ASSERT_TRUE(Tick(more).ok());
  EXPECT_GE(gma_->engine().KOf(0), 4);
  EXPECT_GE(k_before, 1);
  ASSERT_EQ(gma_->ResultOf(1)->size(), 4u);
  const auto want =
      testing::BruteForceKnn(net_, *objects_, NetworkPoint{chain_[3], 0.5}, 4);
  testing::ExpectSameDistances(*gma_->ResultOf(1), want);
}

}  // namespace
}  // namespace cknn
