#ifndef CKNN_SERVE_LOADGEN_H_
#define CKNN_SERVE_LOADGEN_H_

#include <cstddef>
#include <cstdint>

#include "src/core/monitor.h"
#include "src/gen/network_gen.h"
#include "src/serve/front_end.h"
#include "src/sim/metrics.h"
#include "src/util/result.h"

namespace cknn::serve {

/// \brief The million-entity bursty-arrival scenario (docs/serving.md):
/// N objects and Q queries live on a synthetic road network, Table-2
/// random walks generate their movement, and `producers` threads push the
/// resulting `ServeRequest`s — pre-partitioned by entity id, so per-entity
/// order is preserved — through a `ServingFrontEnd` in bursts. Every
/// `heavy_every`-th burst coalesces `heavy_factor` workload steps into one
/// arrival spike, exercising the queue and the batching window.
struct LoadScenarioConfig {
  NetworkGenConfig network;  ///< Default 10K target edges, seed 1.
  std::size_t num_objects = 1000000;
  std::size_t num_queries = 100000;
  int k = 10;
  Algorithm algorithm = Algorithm::kIma;
  int shards = 1;
  int pipeline_depth = 2;
  int producers = 4;
  /// Timed submission windows ("bursts").
  int bursts = 8;
  /// Every heavy_every-th burst is an arrival spike of `heavy_factor`
  /// workload steps; 0 disables spikes.
  int heavy_every = 4;
  int heavy_factor = 4;
  double object_agility = 0.10;
  double query_agility = 0.10;
  double edge_agility = 0.04;
  std::size_t queue_capacity = std::size_t{1} << 16;
  std::size_t max_batch_requests = 0;
  /// true: producers block on a full queue (`Submit`, back-pressure);
  /// false: they drop the request (`TrySubmit`, admission control) and
  /// the drop is counted in `rejected_queue_full`.
  bool block_on_full = true;
  std::uint64_t seed = 42;
};

/// What the scenario measured.
struct LoadScenarioReport {
  /// One step per burst: wall = the burst's submission window (the last
  /// one also folds in the final flush), CPU windows contiguous across
  /// the run.
  RunMetrics metrics;
  /// Front-end counters at the end of the run (latency percentiles are
  /// submit-to-visible wall times).
  ServingStats stats;
  /// Requests the producers offered (accepted + dropped).
  std::uint64_t offered = 0;
  /// Burst-0-to-drained wall clock.
  double total_seconds = 0.0;
  /// Sustained throughput: stats.applied / total_seconds.
  double updates_per_sec = 0.0;
  /// Monitoring-structure bytes after the run.
  std::size_t monitor_memory_bytes = 0;
  /// Setup cost (network + initial install of N objects and Q queries),
  /// outside `total_seconds`.
  double setup_seconds = 0.0;
  /// The front end's latched `last_error()` after the final drain. The
  /// generated workload is valid, so any rejected request or engine
  /// failure during the run is a real failure — admission drops are
  /// counted in `stats`, never latched here. Callers must check this:
  /// `stats` alone cannot distinguish a clean run from one whose updates
  /// the engine refused.
  Status engine_error;
};

/// Runs the scenario end to end. Fails (non-OK) only on setup errors —
/// per-request rejections are part of the measurement, not a failure.
/// Engine-side failures during the run surface in `engine_error`.
Result<LoadScenarioReport> RunLoadScenario(const LoadScenarioConfig& config);

}  // namespace cknn::serve

#endif  // CKNN_SERVE_LOADGEN_H_
