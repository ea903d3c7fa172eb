// Boundary-heavy engine fuzz: IMA and GMA against OVH, and OVH against a
// brute-force oracle, on tiny grids where nearly every distance is a tie.
//
// Objects and queries sit at quarter offsets (ends of edges included) and
// edge weights are quarters in [0.25, 3.0], so distances are exact binary
// fractions: objects tie at the k-th distance, sit exactly on a query's
// bound, or share a node with the query. Every timestamp moves objects
// (often along their own edge), adds and removes some, changes a few
// weights both ways, and installs, moves and terminates queries, with
// terminated ids reinstalled later. The servers run at 1 and 2 shards.
// Ties at the k-th distance are where a change to the candidate set or to
// the order in which edges are scanned would show.
//
// Runs under the `fuzz` label; seeds via CKNN_FUZZ_SEED, case budget via
// CKNN_FUZZ_SCALE (tests/fuzz_util.h).

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/server.h"
#include "src/sim/conformance.h"
#include "src/util/rng.h"
#include "tests/fuzz_util.h"
#include "tests/test_util.h"

namespace cknn {
namespace {

constexpr int kTimestamps = 6;
constexpr ObjectId kObjectIds = 14;
constexpr QueryId kQueryIds = 6;

/// One random update stream over a g x g grid, tracking the live entities
/// so every update it emits is valid.
class BoundaryStream {
 public:
  BoundaryStream(std::uint64_t seed, std::size_t num_edges)
      : rng_(seed), num_edges_(num_edges) {}

  UpdateBatch Initial() {
    UpdateBatch batch;
    for (EdgeId e = 0; e < num_edges_; ++e) {
      if (rng_.NextBool(0.7)) batch.edges.push_back(EdgeUpdate{e, Weight()});
    }
    for (ObjectId id = 0; id < kObjectIds; ++id) {
      if (rng_.NextBool(0.6)) AddObject(id, &batch);
    }
    for (QueryId id = 0; id < kQueryIds; ++id) {
      if (rng_.NextBool(0.6)) InstallQuery(id, &batch);
    }
    return batch;
  }

  UpdateBatch Step() {
    UpdateBatch batch;
    for (ObjectId id = 0; id < kObjectIds; ++id) {
      auto it = objects_.find(id);
      if (it == objects_.end()) {
        if (rng_.NextBool(0.3)) AddObject(id, &batch);
        continue;
      }
      const double roll = rng_.NextDouble();
      if (roll < 0.1) {
        batch.objects.push_back(ObjectUpdate{id, it->second, std::nullopt});
        objects_.erase(it);
      } else if (roll < 0.55) {
        // Half the moves stay on the object's edge.
        const NetworkPoint to = rng_.NextBool(0.5)
                                    ? NetworkPoint{it->second.edge, Quarter()}
                                    : Point();
        batch.objects.push_back(ObjectUpdate{id, it->second, to});
        it->second = to;
      }
    }
    const int weight_changes = static_cast<int>(rng_.NextIndex(4));
    for (int i = 0; i < weight_changes; ++i) {
      batch.edges.push_back(EdgeUpdate{
          static_cast<EdgeId>(rng_.NextIndex(num_edges_)), Weight()});
    }
    for (QueryId id = 0; id < kQueryIds; ++id) {
      auto it = queries_.find(id);
      if (it == queries_.end()) {
        if (rng_.NextBool(0.3)) InstallQuery(id, &batch);
        continue;
      }
      const double roll = rng_.NextDouble();
      if (roll < 0.2) {
        batch.queries.push_back(
            QueryUpdate{id, QueryUpdate::Kind::kTerminate, {}, 1});
        queries_.erase(it);
      } else if (roll < 0.5) {
        it->second.pos = Point();
        batch.queries.push_back(
            QueryUpdate{id, QueryUpdate::Kind::kMove, it->second.pos, 1});
      }
    }
    return batch;
  }

  /// A live query's position and k.
  struct Query {
    NetworkPoint pos;
    int k = 1;
  };

  /// Live queries after the last batch.
  const std::map<QueryId, Query>& queries() const { return queries_; }

 private:
  double Quarter() { return static_cast<double>(rng_.NextIndex(5)) * 0.25; }
  double Weight() { return static_cast<double>(1 + rng_.NextIndex(12)) * 0.25; }
  NetworkPoint Point() {
    return NetworkPoint{static_cast<EdgeId>(rng_.NextIndex(num_edges_)),
                        Quarter()};
  }

  void AddObject(ObjectId id, UpdateBatch* batch) {
    const NetworkPoint p = Point();
    batch->objects.push_back(ObjectUpdate{id, std::nullopt, p});
    objects_[id] = p;
  }

  void InstallQuery(QueryId id, UpdateBatch* batch) {
    const NetworkPoint p = Point();
    const int k = 1 + static_cast<int>(rng_.NextIndex(4));
    batch->queries.push_back(
        QueryUpdate{id, QueryUpdate::Kind::kInstall, p, k});
    queries_[id] = Query{p, k};
  }

  Rng rng_;
  std::size_t num_edges_;
  std::map<ObjectId, NetworkPoint> objects_;
  std::map<QueryId, Query> queries_;
};

/// Runs one case: OVH, IMA and GMA in lockstep at `shards` shards.
void RunCase(std::uint64_t seed, int grid, int shards) {
  const RoadNetwork net = testing::MakeGrid(grid);
  std::vector<std::unique_ptr<MonitoringServer>> servers =
      BuildLockstepServers(
          net, {Algorithm::kOvh, Algorithm::kIma, Algorithm::kGma}, shards);
  const MonitoringServer& ovh = *servers[0];
  BoundaryStream stream(seed, net.NumEdges());
  for (int ts = 0; ts <= kTimestamps; ++ts) {
    SCOPED_TRACE("timestamp " + std::to_string(ts));
    const UpdateBatch batch = ts == 0 ? stream.Initial() : stream.Step();
    for (const auto& server : servers) {
      ASSERT_TRUE(server->Tick(batch).ok())
          << AlgorithmName(server->algorithm());
    }
    for (const auto& [id, query] : stream.queries()) {
      SCOPED_TRACE("query " + std::to_string(id));
      const std::vector<Neighbor>* base = ovh.ResultOf(id);
      ASSERT_NE(base, nullptr);
      // OVH against the oracle, which shares no expansion code with it.
      testing::ExpectSameDistances(
          testing::BruteForceKnn(ovh.network(), ovh.objects(), query.pos,
                                 query.k),
          *base);
      for (std::size_t i = 1; i < servers.size(); ++i) {
        SCOPED_TRACE(AlgorithmName(servers[i]->algorithm()));
        const std::vector<Neighbor>* other = servers[i]->ResultOf(id);
        ASSERT_NE(other, nullptr);
        testing::ExpectSameDistances(*base, *other);
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

class EngineBoundaryFuzzTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(EngineBoundaryFuzzTest, EnginesAgreeWithOvhAtTies) {
  const auto [grid, shards] = GetParam();
  const int cases = testing::FuzzIterations(/*default_iters=*/400,
                                            /*hard_cap=*/20000);
  for (int c = 0; c < cases; ++c) {
    const std::uint64_t seed = testing::FuzzSeed(
        static_cast<std::uint64_t>(1000000 * shards + 100000 * grid + c));
    SCOPED_TRACE("case " + std::to_string(c) + " seed " +
                 std::to_string(seed));
    RunCase(seed, grid, shards);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(GridsAndShards, EngineBoundaryFuzzTest,
                         ::testing::Combine(::testing::Values(3, 4),
                                            ::testing::Values(1, 2)));

}  // namespace
}  // namespace cknn
