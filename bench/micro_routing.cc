// Layer microbench for the IMA engine's per-update path (not a paper
// figure, so scripts/bench.sh does not capture it):
//
//  * MicroRankedRead — the candidate set's ranked read (KthDist) right
//    after a tracked key was removed while untracked keys remain, the
//    shape that causes nearly every rebuild of the nearest-keys array in
//    the monitors. The set holds n candidates (n = 93 at k = 50 is the
//    mean known-set size on the benchmark's paper_ima workload; k = 200
//    keeps the same ratio). Each op removes one of the k nearest, reads
//    the k-th distance and offers the key back, so every op sees the
//    same set.
//  * MicroImaRouting — ImaEngine::ProcessUpdates on object moves over a
//    20x20 grid: influence-list routing, known-set edits and the rebuild
//    pass of the queries the moves reach.
//
// Counters: ns_per_op (per removal+read+offer, or per routed object
// update) and sec_per_ts, the mean time of one timed round (a round of
// ranked reads, or one ProcessUpdates call).

#include <algorithm>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/ima.h"
#include "src/core/object_table.h"
#include "src/core/top_k.h"
#include "src/util/rng.h"
#include "src/util/stopwatch.h"

namespace cknn::bench {
namespace {

/// A `side` x `side` grid of unit edges, nodes numbered row-major.
RoadNetwork Grid(int side) {
  RoadNetwork net;
  for (int y = 0; y < side; ++y) {
    for (int x = 0; x < side; ++x) {
      net.AddNode(Point{static_cast<double>(x), static_cast<double>(y)});
    }
  }
  const auto id = [side](int x, int y) {
    return static_cast<NodeId>(y * side + x);
  };
  for (int y = 0; y < side; ++y) {
    for (int x = 0; x < side; ++x) {
      if (x + 1 < side) CKNN_CHECK(net.AddEdge(id(x, y), id(x + 1, y)).ok());
      if (y + 1 < side) CKNN_CHECK(net.AddEdge(id(x, y), id(x, y + 1)).ok());
    }
  }
  return net;
}

void MicroRankedRead(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const int rounds = static_cast<int>(2000 / Div());
  constexpr int kOpsPerRound = 100;
  Rng rng(7);
  std::vector<std::pair<double, ObjectId>> keys;
  CandidateSet set;
  for (ObjectId id = 0; id < n; ++id) {
    keys.emplace_back(rng.NextDouble(), id * 2654435761u);
    set.Offer(keys.back().second, keys.back().first);
  }
  std::sort(keys.begin(), keys.end());
  double sink = set.KthDist(k);
  for (auto _ : state) {
    Stopwatch wall;
    for (int op = 0; op < rounds * kOpsPerRound; ++op) {
      const auto& [dist, id] = keys[rng.NextIndex(static_cast<std::size_t>(k))];
      set.Remove(id);
      sink += set.KthDist(k);
      set.Offer(id, dist);
    }
    const double seconds = wall.ElapsedSeconds();
    state.SetIterationTime(seconds);
    state.counters["ns_per_op"] = seconds * 1e9 / (rounds * kOpsPerRound);
    state.counters["sec_per_ts"] = seconds / rounds;
  }
  state.counters["checksum"] = sink;
}

void MicroImaRouting(benchmark::State& state) {
  constexpr int kSide = 20;
  constexpr int kQueries = 100;
  constexpr int kObjects = 800;
  constexpr int kMovesPerBatch = 80;
  const int batches = static_cast<int>(2000 / Div());
  RoadNetwork net = Grid(kSide);
  ObjectTable objects(net.NumEdges());
  Rng rng(11);
  const auto random_point = [&] {
    return NetworkPoint{static_cast<EdgeId>(rng.NextIndex(net.NumEdges())),
                        rng.NextDouble()};
  };
  for (ObjectId id = 0; id < kObjects; ++id) {
    CKNN_CHECK(objects.Insert(id, random_point()).ok());
  }
  ImaEngine engine(&net, &objects);
  for (QueryId q = 0; q < kQueries; ++q) {
    CKNN_CHECK(engine.AddQuery(q, ExpansionSource::AtPoint(random_point()),
                               static_cast<int>(state.range(0)))
                   .ok());
  }
  std::vector<ObjectUpdate> batch;
  for (auto _ : state) {
    double seconds = 0.0;
    for (int b = 0; b < batches; ++b) {
      batch.clear();
      for (int m = 0; m < kMovesPerBatch; ++m) {
        const auto id = static_cast<ObjectId>(rng.NextIndex(kObjects));
        const NetworkPoint from = *objects.Position(id);
        const NetworkPoint to = random_point();
        CKNN_CHECK(objects.Move(id, to).ok());
        batch.push_back(ObjectUpdate{id, from, to});
      }
      Stopwatch wall;
      engine.ProcessUpdates(batch, {}, {});
      seconds += wall.ElapsedSeconds();
    }
    state.SetIterationTime(seconds);
    state.counters["ns_per_op"] = seconds * 1e9 / (batches * kMovesPerBatch);
    state.counters["sec_per_ts"] = seconds / batches;
  }
  state.counters["updates_routed"] =
      static_cast<double>(engine.stats().updates_routed);
  state.counters["rebuilds"] = static_cast<double>(engine.stats().rebuilds);
}

BENCHMARK(MicroRankedRead)
    ->ArgNames({"k", "n"})
    ->Args({50, 93})
    ->Args({200, 372})
    ->Iterations(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

BENCHMARK(MicroImaRouting)
    ->ArgNames({"k"})
    ->Arg(8)
    ->Iterations(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cknn::bench
