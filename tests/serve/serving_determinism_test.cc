// Concurrent-producer determinism of the serving front end
// (docs/serving.md): N producer threads pushing a pre-partitioned golden
// workload through ServingFrontEnd must leave the engine byte-identical
// to a serial Tick replay of the same windows. The canonical batch fold
// (per-stream stable sort by entity id) erases producer interleaving as
// long as per-entity order is preserved — which partitioning by entity
// guarantees. Runs under the `serving` label; the CI sanitize lane chews
// on the producer/pump overlap with ThreadSanitizer.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/server.h"
#include "src/gen/network_gen.h"
#include "src/gen/workload.h"
#include "src/serve/front_end.h"
#include "tests/fuzz_util.h"

namespace cknn {
namespace {

/// Lowers a workload batch to the client-side request stream: clients
/// state where entities are, never where they were.
void AppendRequests(const UpdateBatch& batch,
                    std::vector<ServeRequest>* out) {
  for (const ObjectUpdate& u : batch.objects) {
    ServeRequest r;
    r.id = u.id;
    if (u.new_pos.has_value()) {
      r.op = u.old_pos.has_value() ? ServeRequest::Op::kMoveObject
                                   : ServeRequest::Op::kAddObject;
      r.pos = *u.new_pos;
    } else {
      if (!u.old_pos.has_value()) continue;
      r.op = ServeRequest::Op::kRemoveObject;
    }
    out->push_back(r);
  }
  for (const QueryUpdate& u : batch.queries) {
    ServeRequest r;
    r.id = u.id;
    r.pos = u.pos;
    r.k = u.k;
    switch (u.kind) {
      case QueryUpdate::Kind::kInstall:
        r.op = ServeRequest::Op::kInstallQuery;
        break;
      case QueryUpdate::Kind::kMove:
        r.op = ServeRequest::Op::kMoveQuery;
        break;
      case QueryUpdate::Kind::kTerminate:
        r.op = ServeRequest::Op::kTerminateQuery;
        break;
    }
    out->push_back(r);
  }
  for (const EdgeUpdate& u : batch.edges) {
    ServeRequest r;
    r.op = ServeRequest::Op::kUpdateWeight;
    r.id = u.edge;
    r.weight = u.new_weight;
    out->push_back(r);
  }
}

/// Entity-stable partition: one producer owns every update of an entity,
/// so per-entity FIFO order survives any thread interleaving.
std::size_t ProducerOf(const ServeRequest& r, int producers) {
  std::size_t stream = 0;
  switch (r.op) {
    case ServeRequest::Op::kInstallQuery:
    case ServeRequest::Op::kMoveQuery:
    case ServeRequest::Op::kTerminateQuery:
      stream = 1;
      break;
    case ServeRequest::Op::kUpdateWeight:
      stream = 2;
      break;
    default:
      break;
  }
  return static_cast<std::size_t>(
      (r.id + stream) % static_cast<std::uint64_t>(producers));
}

/// Golden workload: the initial population plus `steps` update windows,
/// every third window doubled into an arrival spike (per-entity chains).
std::vector<std::vector<ServeRequest>> MakeWindows(
    const RoadNetwork* network, const PmrQuadtree* index,
    const WorkloadConfig& config, int steps) {
  Workload workload(network, index, config);
  std::vector<std::vector<ServeRequest>> windows;
  std::vector<ServeRequest> initial;
  AppendRequests(workload.Initial(), &initial);
  windows.push_back(std::move(initial));
  for (int s = 0; s < steps; ++s) {
    std::vector<ServeRequest> window;
    AppendRequests(workload.Step(), &window);
    if ((s + 1) % 3 == 0) AppendRequests(workload.Step(), &window);
    windows.push_back(std::move(window));
  }
  return windows;
}

void ExpectSameResults(const MonitoringServer& serial,
                       const MonitoringServer& served,
                       std::size_t num_queries) {
  ASSERT_EQ(served.NumQueries(), serial.NumQueries());
  for (QueryId q = 0; q < static_cast<QueryId>(num_queries); ++q) {
    SCOPED_TRACE("query " + std::to_string(q));
    const std::vector<Neighbor>* base = serial.ResultOf(q);
    const std::vector<Neighbor>* other = served.ResultOf(q);
    ASSERT_EQ(base == nullptr, other == nullptr);
    if (base == nullptr) continue;
    // Byte-identical: same ids, same distances, same order.
    EXPECT_TRUE(*base == *other);
  }
}

struct Scenario {
  Algorithm algorithm;
  int shards;
  int producers;
};

class ServingDeterminismTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(ServingDeterminismTest, ProducersMatchSerialReplay) {
  const Scenario scenario = GetParam();
  const std::uint64_t seed = testing::FuzzSeed(9500);
  SCOPED_TRACE("seed " + std::to_string(seed));
  const NetworkGenConfig net{.target_edges = 200,
                             .seed = seed ^ 0x5E21};
  WorkloadConfig wl;
  wl.num_objects = 90;
  wl.num_queries = 14;
  wl.k = 3;
  wl.edge_agility = 0.1;
  wl.object_agility = 0.3;
  wl.query_agility = 0.25;
  wl.seed = seed;

  MonitoringServer serial(GenerateRoadNetwork(net), scenario.algorithm,
                          scenario.shards, /*pipeline_depth=*/1);
  MonitoringServer served(serial.network().SharedView(),
                          scenario.algorithm, scenario.shards,
                          /*pipeline_depth=*/2);
  const std::vector<std::vector<ServeRequest>> windows = MakeWindows(
      &serial.network(), &serial.spatial_index(), wl, /*steps=*/8);

  // No pump: each window folds into exactly one tick at the Flush below,
  // so the serving tick sequence is the serial tick sequence and results
  // must match byte for byte. (With a pump, a window may split across
  // ticks mid-arrival; the states converge but an incremental algorithm
  // may break distance ties differently — see the OVH pump leg below.)
  ServingFrontEnd front_end(&served);
  for (const std::vector<ServeRequest>& window : windows) {
    // Serial reference: the canonical fold of the whole window (the same
    // fold the front end applies), ticked once.
    ServingFrontEnd::BatchBuild build =
        ServingFrontEnd::BuildBatch(window, serial);
    ASSERT_TRUE(build.rejected.empty());
    ASSERT_TRUE(serial.Tick(build.batch).ok());

    // Served side: the window arrives interleaved across N producers.
    std::vector<std::vector<ServeRequest>> slices(
        static_cast<std::size_t>(scenario.producers));
    for (const ServeRequest& r : window) {
      slices[ProducerOf(r, scenario.producers)].push_back(r);
    }
    std::vector<std::thread> producers;
    std::atomic<int> submit_failures{0};
    producers.reserve(slices.size());
    for (const std::vector<ServeRequest>& slice : slices) {
      producers.emplace_back([&front_end, &slice, &submit_failures] {
        for (const ServeRequest& r : slice) {
          if (!front_end.Submit(r).ok()) ++submit_failures;
        }
      });
    }
    for (std::thread& t : producers) t.join();
    ASSERT_EQ(submit_failures.load(), 0);
    ASSERT_TRUE(front_end.Flush().ok());
  }
  front_end.Shutdown();

  const ServingStats stats = front_end.Stats();
  EXPECT_EQ(stats.rejected_invalid, 0u);
  EXPECT_EQ(stats.rejected_queue_full, 0u);
  EXPECT_EQ(stats.accepted, stats.applied);
  ExpectSameResults(serial, served, wl.num_queries);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, ServingDeterminismTest,
    ::testing::Values(Scenario{Algorithm::kOvh, 1, 4},
                      Scenario{Algorithm::kIma, 1, 4},
                      Scenario{Algorithm::kGma, 1, 3},
                      Scenario{Algorithm::kIma, 2, 4}));

// With the pump running, producer/pump timing decides how a window is
// sliced into ticks. For a per-tick recomputing algorithm (OVH) the
// results depend only on the state at the read barrier, so byte-identity
// to the serial replay must survive ANY tick partition. (An incremental
// algorithm may legitimately break equal-distance ties differently under
// a different partition, so this leg pins OVH.)
TEST(ServingPumpDeterminismTest, PumpedProducersMatchSerialForOvh) {
  const std::uint64_t seed = testing::FuzzSeed(9600);
  SCOPED_TRACE("seed " + std::to_string(seed));
  const NetworkGenConfig net{.target_edges = 200, .seed = seed ^ 0x5E22};
  WorkloadConfig wl;
  wl.num_objects = 90;
  wl.num_queries = 14;
  wl.k = 3;
  wl.edge_agility = 0.1;
  wl.object_agility = 0.3;
  wl.query_agility = 0.25;
  wl.seed = seed;
  constexpr int kProducers = 4;

  MonitoringServer serial(GenerateRoadNetwork(net), Algorithm::kOvh,
                          /*num_shards=*/1, /*pipeline_depth=*/1);
  MonitoringServer served(serial.network().SharedView(), Algorithm::kOvh,
                          /*num_shards=*/1, /*pipeline_depth=*/2);
  const std::vector<std::vector<ServeRequest>> windows = MakeWindows(
      &serial.network(), &serial.spatial_index(), wl, /*steps=*/8);

  ServingConfig config;
  config.queue_capacity = 64;  // Small: forces pump overlap + back-pressure.
  ServingFrontEnd front_end(&served, config);
  front_end.Start();
  for (const std::vector<ServeRequest>& window : windows) {
    ServingFrontEnd::BatchBuild build =
        ServingFrontEnd::BuildBatch(window, serial);
    ASSERT_TRUE(build.rejected.empty());
    ASSERT_TRUE(serial.Tick(build.batch).ok());

    std::vector<std::vector<ServeRequest>> slices(kProducers);
    for (const ServeRequest& r : window) {
      slices[ProducerOf(r, kProducers)].push_back(r);
    }
    std::vector<std::thread> producers;
    std::atomic<int> submit_failures{0};
    producers.reserve(slices.size());
    for (const std::vector<ServeRequest>& slice : slices) {
      producers.emplace_back([&front_end, &slice, &submit_failures] {
        for (const ServeRequest& r : slice) {
          if (!front_end.Submit(r).ok()) ++submit_failures;
        }
      });
    }
    for (std::thread& t : producers) t.join();
    ASSERT_EQ(submit_failures.load(), 0);
    ASSERT_TRUE(front_end.Flush().ok());
  }
  front_end.Shutdown();

  const ServingStats stats = front_end.Stats();
  EXPECT_EQ(stats.rejected_invalid, 0u);
  EXPECT_EQ(stats.rejected_queue_full, 0u);
  EXPECT_EQ(stats.accepted, stats.applied);
  ExpectSameResults(serial, served, wl.num_queries);
}

}  // namespace
}  // namespace cknn
