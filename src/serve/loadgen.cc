#include "src/serve/loadgen.h"

#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/server.h"
#include "src/core/updates.h"
#include "src/gen/workload.h"
#include "src/util/annotations.h"
#include "src/util/stopwatch.h"

namespace cknn::serve {

namespace {

/// Reusable all-thread rendezvous (the producers and the timing thread
/// meet at every burst boundary).
class CyclicBarrier {
 public:
  explicit CyclicBarrier(int parties) : parties_(parties) {}

  void ArriveAndWait() CKNN_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    const std::uint64_t generation = generation_;
    if (++waiting_ == parties_) {
      waiting_ = 0;
      ++generation_;
      cv_.NotifyAll();
      return;
    }
    while (generation_ == generation) cv_.Wait(mu_);
  }

 private:
  Mutex mu_;
  CondVar cv_;
  const int parties_;
  int waiting_ CKNN_GUARDED_BY(mu_) = 0;
  std::uint64_t generation_ CKNN_GUARDED_BY(mu_) = 0;
};

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
      if (!u.old_pos.has_value()) continue;  // No-op slot.
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

/// Stable producer of a request: entities are partitioned by id within
/// their stream, so one producer owns every update of an entity and
/// per-entity order survives any thread interleaving (the determinism
/// contract of ServingFrontEnd::BuildBatch).
std::size_t ProducerOf(const ServeRequest& r, int producers) {
  // Offset the streams so object i and query i do not always share a
  // producer.
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
  return static_cast<std::size_t>((r.id + stream) %
                                  static_cast<std::uint64_t>(producers));
}

}  // namespace

Result<LoadScenarioReport> RunLoadScenario(const LoadScenarioConfig& config) {
  if (config.producers < 1) {
    return Status::InvalidArgument("producers must be >= 1");
  }
  if (config.bursts < 1) {
    return Status::InvalidArgument("bursts must be >= 1");
  }
  LoadScenarioReport report;
  Stopwatch setup;

  MonitoringServer server(GenerateRoadNetwork(config.network),
                          config.algorithm, config.shards,
                          config.pipeline_depth);
  WorkloadConfig wconfig;
  wconfig.num_objects = config.num_objects;
  wconfig.num_queries = config.num_queries;
  wconfig.k = config.k;
  wconfig.object_agility = config.object_agility;
  wconfig.query_agility = config.query_agility;
  wconfig.edge_agility = config.edge_agility;
  wconfig.seed = config.seed;
  Workload workload(&server.network(), &server.spatial_index(), wconfig);

  // Install the standing population synchronously (untimed setup): the
  // measured windows are the steady-state update stream, not the cold
  // build of N objects and Q query results.
  CKNN_RETURN_NOT_OK(server.Tick(workload.Initial()));
  CKNN_RETURN_NOT_OK(server.Drain());

  // Pre-generate every burst's per-producer slice so the timed windows
  // measure ingest, not generation. A heavy burst coalesces several
  // workload steps into one arrival spike (per-entity chains are legal:
  // the front end resolves them through its within-batch overlay).
  const int producers = config.producers;
  std::vector<std::vector<std::vector<ServeRequest>>> slices(
      static_cast<std::size_t>(config.bursts));
  for (int b = 0; b < config.bursts; ++b) {
    const bool heavy = config.heavy_every > 0 &&
                       (b + 1) % config.heavy_every == 0;
    const int steps = heavy ? config.heavy_factor : 1;
    std::vector<ServeRequest> burst;
    for (int s = 0; s < steps; ++s) AppendRequests(workload.Step(), &burst);
    auto& per_producer = slices[static_cast<std::size_t>(b)];
    per_producer.resize(static_cast<std::size_t>(producers));
    for (const ServeRequest& r : burst) {
      per_producer[ProducerOf(r, producers)].push_back(r);
    }
    report.offered += burst.size();
  }
  report.setup_seconds = setup.ElapsedSeconds();

  ServingConfig sconfig;
  sconfig.queue_capacity = config.queue_capacity;
  sconfig.max_batch_requests = config.max_batch_requests;
  ServingFrontEnd front_end(&server, sconfig);
  front_end.Start();

  // Producers submit their slice of each burst between two barriers; the
  // timing thread (this one) brackets the same barriers with stopwatches.
  CyclicBarrier barrier(producers + 1);
  const bool block = config.block_on_full;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      for (int b = 0; b < config.bursts; ++b) {
        barrier.ArriveAndWait();
        const auto& mine =
            slices[static_cast<std::size_t>(b)][static_cast<std::size_t>(p)];
        for (const ServeRequest& r : mine) {
          // Both paths tolerate rejection: a dropped request is counted
          // by the front end, and later updates of the same entity
          // re-resolve against the live table, so nothing desyncs.
          if (block) {
            CKNN_IGNORE_STATUS(front_end.Submit(r),
                               "load generator: drops are part of the "
                               "scenario and counted by the front end");
          } else {
            CKNN_IGNORE_STATUS(front_end.TrySubmit(r),
                               "load generator: admission-control rejects "
                               "are the measured signal (rejected_full)");
          }
        }
        barrier.ArriveAndWait();
      }
    });
  }

  report.metrics.steps.reserve(static_cast<std::size_t>(config.bursts));
  Stopwatch total;
  CpuStopwatch cpu;
  for (int b = 0; b < config.bursts; ++b) {
    barrier.ArriveAndWait();  // Releases the producers into burst b.
    Stopwatch wall;
    barrier.ArriveAndWait();  // Everyone submitted.
    TimestepMetrics step;
    step.seconds = wall.ElapsedSeconds();
    step.cpu_seconds = cpu.ElapsedSeconds();
    cpu.Reset();
    report.metrics.steps.push_back(step);
  }
  for (std::thread& t : threads) t.join();
  {
    // The queue may still hold the tail of the last burst; processing it
    // belongs to the run, so fold the flush into the final window.
    Stopwatch wall;
    cpu.Reset();
    CKNN_IGNORE_STATUS(front_end.Flush(),
                       "tail flush; a drain failure is latched into "
                       "last_error(), which the report carries as "
                       "engine_error");
    report.metrics.steps.back().seconds += wall.ElapsedSeconds();
    report.metrics.steps.back().cpu_seconds += cpu.ElapsedSeconds();
  }
  report.total_seconds = total.ElapsedSeconds();
  front_end.Shutdown();

  // Shutdown's drain ran, so the latch is final. Without this the report
  // would show plausible counters for a run whose updates the engine
  // silently refused.
  report.engine_error = front_end.last_error();
  report.stats = front_end.Stats();
  report.updates_per_sec =
      report.total_seconds > 0.0
          ? static_cast<double>(report.stats.applied) / report.total_seconds
          : 0.0;
  Result<std::size_t> memory = server.TryMonitorMemoryBytes();
  report.monitor_memory_bytes = memory.ok() ? *memory : 0;
  return report;
}

}  // namespace cknn::serve
