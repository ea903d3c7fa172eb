#include "src/core/expansion.h"

#include <algorithm>

#include "gtest/gtest.h"
#include "src/core/knn_search.h"
#include "tests/test_util.h"

namespace cknn {
namespace {

// A path network 0 - 1 - 2 - 3 with unit weights, plus a branch 1 - 4.
RoadNetwork MakePathWithBranch() {
  RoadNetwork net;
  net.AddNode(Point{0, 0});
  net.AddNode(Point{1, 0});
  net.AddNode(Point{2, 0});
  net.AddNode(Point{3, 0});
  net.AddNode(Point{1, 1});
  EXPECT_TRUE(net.AddEdge(0, 1).ok());  // e0
  EXPECT_TRUE(net.AddEdge(1, 2).ok());  // e1
  EXPECT_TRUE(net.AddEdge(2, 3).ok());  // e2
  EXPECT_TRUE(net.AddEdge(1, 4).ok());  // e3
  return net;
}

class ExpansionStateTest : public ::testing::Test {
 protected:
  ExpansionStateTest() : net_(MakePathWithBranch()) {
    // Expansion rooted at t=0.5 of edge 0 (midpoint between nodes 0 and 1).
    state_.ResetToPoint(NetworkPoint{0, 0.5});
    state_.Settle(0, 0.5, kInvalidNode, 0);
    state_.Settle(1, 0.5, kInvalidNode, 0);
    state_.Settle(2, 1.5, 1, 1);
    state_.Settle(3, 2.5, 2, 2);
    state_.Settle(4, 1.5, 1, 3);
    state_.set_bound(3.0);
  }
  RoadNetwork net_;
  ExpansionState state_;
};

TEST_F(ExpansionStateTest, BasicAccessors) {
  EXPECT_EQ(state_.NumSettled(), 5u);
  EXPECT_TRUE(state_.IsSettled(2));
  EXPECT_DOUBLE_EQ(*state_.NodeDistance(3), 2.5);
  EXPECT_FALSE(state_.NodeDistance(99).has_value());
  EXPECT_EQ(state_.Info(2)->parent, 1u);
}

TEST_F(ExpansionStateTest, TreeChildVia) {
  EXPECT_EQ(*state_.TreeChildVia(net_, 1), 2u);
  EXPECT_EQ(*state_.TreeChildVia(net_, 2), 3u);
  EXPECT_EQ(*state_.TreeChildVia(net_, 3), 4u);
}

TEST_F(ExpansionStateTest, SubtreeOf) {
  auto sub = state_.SubtreeOf(1);
  std::sort(sub.begin(), sub.end());
  EXPECT_EQ(sub, (std::vector<NodeId>{1, 2, 3, 4}));
  EXPECT_EQ(state_.SubtreeOf(3), (std::vector<NodeId>{3}));
}

TEST_F(ExpansionStateTest, PruneSubtree) {
  state_.PruneSubtree(2);
  EXPECT_FALSE(state_.IsSettled(2));
  EXPECT_FALSE(state_.IsSettled(3));
  EXPECT_TRUE(state_.IsSettled(4));
  EXPECT_EQ(state_.NumSettled(), 3u);
}

TEST_F(ExpansionStateTest, AdjustSubtree) {
  const auto adjusted = state_.AdjustSubtree(2, -0.5);
  EXPECT_EQ(adjusted.size(), 2u);
  EXPECT_DOUBLE_EQ(*state_.NodeDistance(2), 1.0);
  EXPECT_DOUBLE_EQ(*state_.NodeDistance(3), 2.0);
  EXPECT_DOUBLE_EQ(*state_.NodeDistance(4), 1.5);  // Untouched.
}

TEST_F(ExpansionStateTest, PruneBeyondIsAncestorClosed) {
  state_.PruneBeyond(1.5);
  EXPECT_TRUE(state_.IsSettled(0));
  EXPECT_TRUE(state_.IsSettled(1));
  EXPECT_TRUE(state_.IsSettled(2));  // dist == threshold kept
  EXPECT_TRUE(state_.IsSettled(4));
  EXPECT_FALSE(state_.IsSettled(3));
  // Every remaining node's parent chain must be intact.
  for (const auto& [n, info] : testing::SettledEntries(state_)) {
    (void)n;
    if (info.parent != kInvalidNode) {
      EXPECT_TRUE(state_.IsSettled(info.parent));
    }
  }
}

TEST_F(ExpansionStateTest, PruneOthersBeyondKeepsSubtree) {
  // Keep subtree of 2 (nodes 2, 3) regardless of distance; others only if
  // dist <= 0.6.
  state_.PruneOthersBeyond(2, 0.6);
  EXPECT_TRUE(state_.IsSettled(2));
  EXPECT_TRUE(state_.IsSettled(3));
  EXPECT_TRUE(state_.IsSettled(0));
  EXPECT_TRUE(state_.IsSettled(1));
  EXPECT_FALSE(state_.IsSettled(4));  // 1.5 > 0.6, not in subtree.
}

TEST_F(ExpansionStateTest, PointDistanceWithinCoverage) {
  // Point at t=0.25 of edge 1 (between nodes 1 and 2).
  auto d = state_.PointDistance(net_, NetworkPoint{1, 0.25});
  ASSERT_TRUE(d.has_value());
  EXPECT_DOUBLE_EQ(*d, 0.75);  // Via node 1: 0.5 + 0.25.
  // Same-edge direct path beats endpoint routes.
  auto dq = state_.PointDistance(net_, NetworkPoint{0, 0.75});
  ASSERT_TRUE(dq.has_value());
  EXPECT_DOUBLE_EQ(*dq, 0.25);
}

TEST_F(ExpansionStateTest, PointDistanceOutsideCoverage) {
  state_.PruneSubtree(2);  // Removes 2 and its descendant 3.
  state_.PruneSubtree(4);
  // Edge 2 now has no settled endpoint.
  EXPECT_FALSE(state_.PointDistance(net_, NetworkPoint{2, 0.5}).has_value());
}

TEST_F(ExpansionStateTest, EdgeTouchedAndInfluencingInterval) {
  EXPECT_TRUE(state_.EdgeTouched(net_, 0));  // Source edge.
  EXPECT_TRUE(state_.EdgeTouched(net_, 2));
  state_.PruneSubtree(3);
  // Edge 2 still touched through node 2.
  EXPECT_TRUE(state_.EdgeTouched(net_, 2));
  // Bound is 3.0: all of edge 2 lies within distance (node 2 at 1.5).
  EXPECT_TRUE(state_.InInfluencingInterval(net_, 2, 0.5));
  state_.set_bound(1.6);
  EXPECT_TRUE(state_.InInfluencingInterval(net_, 2, 0.05));
  EXPECT_FALSE(state_.InInfluencingInterval(net_, 2, 0.5));
}

TEST_F(ExpansionStateTest, ReRootToSubtree) {
  // Query moves to t=0.5 of edge 1; subtree of node 2 stays valid.
  // Old distance of the new location: d(1) + 0.5 = 1.0.
  state_.ReRootToSubtree(2, NetworkPoint{1, 0.5}, -1.0);
  EXPECT_EQ(state_.NumSettled(), 2u);
  EXPECT_DOUBLE_EQ(*state_.NodeDistance(2), 0.5);
  EXPECT_DOUBLE_EQ(*state_.NodeDistance(3), 1.5);
  EXPECT_EQ(state_.Info(2)->parent, kInvalidNode);
  EXPECT_EQ(state_.Info(2)->via_edge, 1u);
  EXPECT_EQ(state_.source().point, (NetworkPoint{1, 0.5}));
}

TEST(ExpansionStateNodeSourceTest, NodeRootBasics) {
  RoadNetwork net = MakePathWithBranch();
  ExpansionState state;
  state.ResetToNode(1);
  state.Settle(1, 0.0, kInvalidNode, kInvalidEdge);
  EXPECT_TRUE(state.source().at_node);
  auto d = state.PointDistance(net, NetworkPoint{1, 0.5});
  ASSERT_TRUE(d.has_value());
  EXPECT_DOUBLE_EQ(*d, 0.5);
  EXPECT_TRUE(state.EdgeTouched(net, 0));
  EXPECT_FALSE(state.EdgeTouched(net, 2));
}

TEST_F(ExpansionStateTest, AdjustSubtreeRaisesMaxSettledDist) {
  // Regression: a positive delta used to leave max_settled_dist_ at its old
  // value, understating the tree radius and breaking the lazy-shrink
  // trigger (it compares the radius against the bound).
  EXPECT_DOUBLE_EQ(state_.max_settled_dist(), 2.5);  // Node 3.
  state_.AdjustSubtree(2, 2.0);                      // Nodes 2, 3 move out.
  EXPECT_DOUBLE_EQ(*state_.NodeDistance(3), 4.5);
  EXPECT_DOUBLE_EQ(state_.max_settled_dist(), 4.5);
  // Negative delta keeps the old maximum (monotone upper bound).
  state_.AdjustSubtree(2, -3.0);
  EXPECT_DOUBLE_EQ(*state_.NodeDistance(3), 1.5);
  EXPECT_DOUBLE_EQ(state_.max_settled_dist(), 4.5);
}

TEST_F(ExpansionStateTest, PruneKeepsMaxSettledDistAsUpperBound) {
  // Erasing nodes deliberately does not recompute the maximum over the
  // survivors: max_settled_dist() stays a monotone upper bound on the tree
  // radius until the caller re-anchors it (set_max_settled_dist after a
  // lazy shrink). It must never drop below the true settled maximum.
  state_.PruneSubtree(3);  // Removes the farthest node (dist 2.5).
  EXPECT_DOUBLE_EQ(state_.max_settled_dist(), 2.5);
  double true_max = 0.0;
  for (const auto& [n, info] : testing::SettledEntries(state_)) {
    (void)n;
    true_max = std::max(true_max, info.dist);
  }
  EXPECT_GE(state_.max_settled_dist(), true_max);
  state_.set_max_settled_dist(true_max);
  EXPECT_DOUBLE_EQ(state_.max_settled_dist(), 1.5);
}

TEST(ExpansionStateClearTest, ClearResetsBoundAndNodes) {
  ExpansionState state;
  state.ResetToNode(0);
  state.Settle(0, 0.0, kInvalidNode, kInvalidEdge);
  state.set_bound(5.0);
  state.Clear();
  EXPECT_EQ(state.NumSettled(), 0u);
  EXPECT_EQ(state.bound(), kInfDist);
}

TEST(ExpansionMemoryTest, FollowsLiveNodesAcrossDistantReRoots) {
  // Regression: the per-query node maps once kept a 64-slot page for every
  // id range a query had ever touched, so a query moving across the network
  // grew its footprint with each re-root while its tree stayed small (IMA's
  // monitor memory rose tick after tick). Each round here roots the state
  // and frontier in a fresh, distant id range with a handful of live nodes.
  constexpr NodeId kSettled = 6;
  constexpr NodeId kTentative = 4;
  ExpansionState state;
  Frontier frontier;
  std::size_t peak = 0;
  for (NodeId round = 0; round < 400; ++round) {
    const NodeId base = round * 10007;
    state.ResetToPoint(NetworkPoint{round, 0.5});
    frontier.Clear();
    state.Settle(base, 0.5, kInvalidNode, round);
    for (NodeId i = 1; i < kSettled; ++i) {
      state.Settle(base + i, 0.5 + i, base + i - 1, round + i);
    }
    for (NodeId i = 0; i < kTentative; ++i) {
      frontier.Relax(state, base + kSettled + i, 10.0 + i, base + i,
                     round + kSettled + i);
    }
    if (round % 2 == 1) {
      // Query movement inside the tree: keep the subtree below base + 2.
      state.ReRootToSubtree(base + 2, NetworkPoint{round + 1, 0.25}, -2.0);
    }
    peak = std::max(peak, state.MemoryBytes() + frontier.MemoryBytes());
  }
  // 128 bytes per live entry covers every map's minimum array (16 slots).
  const std::size_t live = kSettled + kTentative;
  EXPECT_LE(peak, sizeof(ExpansionState) + 128 * live);
}

}  // namespace
}  // namespace cknn
