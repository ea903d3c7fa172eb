#ifndef CKNN_TESTS_TEST_UTIL_H_
#define CKNN_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/expansion.h"
#include "src/core/object_table.h"
#include "src/core/updates.h"
#include "src/graph/network_point.h"
#include "src/graph/road_network.h"
#include "src/graph/shortest_path.h"
#include "src/util/macros.h"
#include "src/util/status.h"

namespace cknn::testing {

/// Materializes the settled set of an expansion (in the state's iteration
/// order, not sorted) so tests can range-for, break, and ASSERT over it.
inline std::vector<std::pair<NodeId, ExpansionState::SettledInfo>>
SettledEntries(const ExpansionState& state) {
  std::vector<std::pair<NodeId, ExpansionState::SettledInfo>> out;
  out.reserve(state.NumSettled());
  state.ForEachSettled([&](NodeId n, const ExpansionState::SettledInfo& info) {
    out.emplace_back(n, info);
  });
  return out;
}

/// Per-query result comparison shared by the execution-invariance suites
/// (shard_determinism_test, server_pipeline_test): byte-exact for
/// IMA/OVH (`exact`), per-rank conformance tolerance (1e-7 relative,
/// docs/sharding.md) for GMA, whose shard-local active-node grouping may
/// derive a distance through a different equally-shortest path.
inline void ExpectSameNeighbors(bool exact, const std::vector<Neighbor>& base,
                                const std::vector<Neighbor>& other,
                                const std::string& who) {
  if (exact) {
    // Byte-identical: same ids, bit-equal distances, same order.
    ASSERT_TRUE(base == other)
        << who << " diverged from the serial baseline (result size "
        << base.size() << " vs " << other.size() << ")";
    return;
  }
  ASSERT_EQ(base.size(), other.size()) << who;
  for (std::size_t rank = 0; rank < base.size(); ++rank) {
    const double db = base[rank].distance;
    const double d_other = other[rank].distance;
    ASSERT_LE(std::abs(db - d_other), 1e-7 * (1.0 + std::abs(db)))
        << who << " rank " << rank << ": object " << base[rank].id << " at "
        << db << " vs object " << other[rank].id << " at " << d_other;
  }
}

/// Builds a g x g grid network with unit spacing (lengths == 1 on axis
/// edges). Node (x, y) has id y * g + x.
inline RoadNetwork MakeGrid(int g, double spacing = 1.0) {
  RoadNetwork net;
  for (int y = 0; y < g; ++y) {
    for (int x = 0; x < g; ++x) {
      net.AddNode(Point{x * spacing, y * spacing});
    }
  }
  for (int y = 0; y < g; ++y) {
    for (int x = 0; x < g; ++x) {
      const NodeId here = static_cast<NodeId>(y * g + x);
      if (x + 1 < g) {
        EXPECT_TRUE(net.AddEdge(here, here + 1).ok());
      }
      if (y + 1 < g) {
        EXPECT_TRUE(net.AddEdge(here, here + g).ok());
      }
    }
  }
  return net;
}

/// The network of the paper's Figure 11: intersections n1, n2, n5 and a
/// chain n1-n7-n6-n5, terminals n8, n9, n3, n4.
/// Node ids: n1..n9 -> 0..8. Returns the network; edge ids in insertion
/// order: n1n8, n1n9, n1n7, n7n6, n6n5, n1n2, n2n3, n2n5, n5n4.
inline RoadNetwork MakeFigure11() {
  RoadNetwork net;
  // Coordinates chosen so Euclidean lengths are reasonable.
  const Point coords[9] = {
      {2, 2},  // n1
      {4, 2},  // n2
      {6, 2},  // n3
      {6, 0},  // n4
      {4, 0},  // n5
      {3, 0},  // n6
      {2, 0},  // n7
      {1, 3},  // n8
      {3, 3},  // n9
  };
  for (const Point& p : coords) net.AddNode(p);
  const int n1 = 0, n2 = 1, n3 = 2, n4 = 3, n5 = 4, n6 = 5, n7 = 6, n8 = 7,
            n9 = 8;
  EXPECT_TRUE(net.AddEdge(n1, n8).ok());  // e0
  EXPECT_TRUE(net.AddEdge(n1, n9).ok());  // e1
  EXPECT_TRUE(net.AddEdge(n1, n7).ok());  // e2
  EXPECT_TRUE(net.AddEdge(n7, n6).ok());  // e3
  EXPECT_TRUE(net.AddEdge(n6, n5).ok());  // e4
  EXPECT_TRUE(net.AddEdge(n1, n2).ok());  // e5
  EXPECT_TRUE(net.AddEdge(n2, n3).ok());  // e6
  EXPECT_TRUE(net.AddEdge(n2, n5).ok());  // e7
  EXPECT_TRUE(net.AddEdge(n5, n4).ok());  // e8
  return net;
}

/// Applies a batch's object updates to `objects` in stream order. Engines
/// only read the object table: the server's apply stage does exactly this
/// before its engines see a batch, so engine tests that drive a monitor
/// directly call it first and run the order production runs.
inline void ApplyObjectUpdates(const std::vector<ObjectUpdate>& updates,
                               ObjectTable* objects) {
  for (const ObjectUpdate& u : updates) objects->Apply(u);
}

/// Brute-force k-NN oracle: full point-to-point shortest path per object.
inline std::vector<Neighbor> BruteForceKnn(const RoadNetwork& net,
                                           const ObjectTable& objects,
                                           const NetworkPoint& query,
                                           int k) {
  std::vector<Neighbor> all;
  for (EdgeId e = 0; e < net.NumEdges(); ++e) {
    for (const EdgeObject& obj : objects.ObjectsOn(e)) {
      const NetworkPoint pos = objects.Position(obj.id).value();
      const double d = PointToPointDistance(net, query, pos);
      if (d < kInfDist) all.push_back(Neighbor{obj.id, d});
    }
  }
  std::sort(all.begin(), all.end(), [](const Neighbor& a, const Neighbor& b) {
    return a.distance != b.distance ? a.distance < b.distance : a.id < b.id;
  });
  if (static_cast<int>(all.size()) > k) all.resize(k);
  return all;
}

/// Whole file as a string (for byte-identity assertions on trace files).
inline std::string ReadFileToString(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Asserts that two k-NN result lists agree as distance multisets (ids may
/// differ under exact ties).
inline void ExpectSameDistances(const std::vector<Neighbor>& a,
                                const std::vector<Neighbor>& b,
                                double tol = 1e-7) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].distance, b[i].distance,
                tol * (1.0 + std::abs(a[i].distance)))
        << "rank " << i << ": ids " << a[i].id << " vs " << b[i].id;
  }
}

}  // namespace cknn::testing

#endif  // CKNN_TESTS_TEST_UTIL_H_
