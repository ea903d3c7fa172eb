#include "src/graph/road_network.h"

#include "gtest/gtest.h"
#include "src/gen/network_gen.h"
#include "tests/test_util.h"

namespace cknn {
namespace {

TEST(RoadNetworkTest, AddNodesAndEdges) {
  RoadNetwork net;
  const NodeId a = net.AddNode(Point{0, 0});
  const NodeId b = net.AddNode(Point{3, 4});
  auto e = net.AddEdge(a, b);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(net.NumNodes(), 2u);
  EXPECT_EQ(net.NumEdges(), 1u);
  EXPECT_DOUBLE_EQ(net.edge(*e).length, 5.0);
  EXPECT_DOUBLE_EQ(net.edge(*e).weight, 5.0);  // Initialized to length.
}

TEST(RoadNetworkTest, AddEdgeRejectsBadInput) {
  RoadNetwork net;
  const NodeId a = net.AddNode(Point{0, 0});
  const NodeId b = net.AddNode(Point{1, 0});
  EXPECT_TRUE(net.AddEdge(a, a).status().IsInvalidArgument());  // Self-loop.
  EXPECT_TRUE(net.AddEdge(a, 99).status().IsInvalidArgument());
  EXPECT_TRUE(net.AddEdge(99, b).status().IsInvalidArgument());
  // Zero-length edge (coincident nodes, no override).
  const NodeId c = net.AddNode(Point{0, 0});
  EXPECT_TRUE(net.AddEdge(a, c).status().IsInvalidArgument());
}

TEST(RoadNetworkTest, LengthOverride) {
  RoadNetwork net;
  const NodeId a = net.AddNode(Point{0, 0});
  const NodeId b = net.AddNode(Point{1, 0});
  auto e = net.AddEdge(a, b, 7.5);
  ASSERT_TRUE(e.ok());
  EXPECT_DOUBLE_EQ(net.edge(*e).length, 7.5);
}

TEST(RoadNetworkTest, AdjacencyAndDegree) {
  RoadNetwork net = testing::MakeGrid(3);
  // Corner, border, and center degrees of a 3x3 grid.
  EXPECT_EQ(net.Degree(0), 2u);
  EXPECT_EQ(net.Degree(1), 3u);
  EXPECT_EQ(net.Degree(4), 4u);
  for (const RoadNetwork::Incidence& inc : net.Incidences(4)) {
    EXPECT_TRUE(net.IsEndpoint(inc.edge, 4));
    EXPECT_EQ(net.OtherEndpoint(inc.edge, 4), inc.neighbor);
  }
}

TEST(RoadNetworkTest, SetWeight) {
  RoadNetwork net = testing::MakeGrid(2);
  EXPECT_TRUE(net.SetWeight(0, 2.5).ok());
  EXPECT_DOUBLE_EQ(net.edge(0).weight, 2.5);
  EXPECT_DOUBLE_EQ(net.edge(0).length, 1.0);  // Length untouched.
  EXPECT_TRUE(net.SetWeight(0, -1.0).IsInvalidArgument());
  EXPECT_TRUE(net.SetWeight(999, 1.0).IsNotFound());
}

TEST(RoadNetworkTest, EdgeSegmentAndBoundingBox) {
  RoadNetwork net = testing::MakeGrid(3, 2.0);
  const Segment s = net.EdgeSegment(0);
  EXPECT_DOUBLE_EQ(s.Length(), 2.0);
  const Rect box = net.BoundingBox();
  EXPECT_DOUBLE_EQ(box.Width(), 4.0);
  EXPECT_DOUBLE_EQ(box.Height(), 4.0);
}

TEST(RoadNetworkTest, AverageEdgeLength) {
  RoadNetwork net = testing::MakeGrid(3);
  EXPECT_DOUBLE_EQ(net.AverageEdgeLength(), 1.0);
  RoadNetwork empty;
  EXPECT_DOUBLE_EQ(empty.AverageEdgeLength(), 0.0);
}

// A view shares the topology but owns its weights: a weight update in one
// view is invisible in every other (each shard applies edge updates to its
// own view).
TEST(RoadNetworkTest, SharedViewHasIndependentWeights) {
  RoadNetwork net = testing::MakeGrid(5);
  ASSERT_TRUE(net.SetWeight(2, 9.0).ok());
  RoadNetwork view = net.SharedView();
  EXPECT_TRUE(view.SharesTopologyWith(net));
  EXPECT_EQ(view.NumNodes(), net.NumNodes());
  EXPECT_EQ(view.NumEdges(), net.NumEdges());
  EXPECT_DOUBLE_EQ(view.WeightOf(2), 9.0);  // Current weights copied.

  ASSERT_TRUE(view.SetWeight(0, 42.0).ok());
  EXPECT_EQ(view.WeightOf(0), 42.0);
  EXPECT_NE(net.WeightOf(0), 42.0);  // The base view is untouched.
  ASSERT_TRUE(net.SetWeight(1, 7.0).ok());
  EXPECT_NE(view.WeightOf(1), 7.0);
}

TEST(RoadNetworkTest, MemoryBytesNonTrivial) {
  RoadNetwork net = testing::MakeGrid(4);
  EXPECT_GT(net.MemoryBytes(), 100u);
}

}  // namespace
}  // namespace cknn
