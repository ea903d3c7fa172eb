#ifndef CKNN_PERFBENCH_PROBES_H_
#define CKNN_PERFBENCH_PROBES_H_

// Layer probes shared by the workloads: each one calls a layer's public
// functions from outside the library and reports what it measured.

#include <cstdint>
#include <vector>

#include "common.h"
#include "referee.h"
#include "tracer.h"
#include "src/core/server.h"
#include "src/core/updates.h"

namespace perfbench {

/// Engine counters summed over the shards (read from each shard's monitor
/// through `shards().monitor(i)`; requires a drained server). Takes the
/// server mutably only because Gma exposes its engine non-const.
struct EngineCounters {
  // ImaEngine::Stats (IMA's engine, or GMA's engine over active nodes).
  std::uint64_t full_recomputes = 0;
  std::uint64_t reroots = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t updates_routed = 0;
  std::uint64_t updates_ignored = 0;
  std::vector<std::uint64_t> routed_per_shard;
  // Gma::Stats.
  std::uint64_t evaluations = 0;
  std::uint64_t affected_by_object = 0;
  std::uint64_t affected_by_edge = 0;
  std::uint64_t affected_by_node_change = 0;
};
EngineCounters ReadEngineCounters(cknn::MonitoringServer& server);

/// Reports the `ima.*` and `gma.*` per-layer metrics as per-tick means of
/// `after - before` over `ticks` ticks.
void ReportEngineCounters(const EngineCounters& before,
                          const EngineCounters& after, double ticks,
                          Report* report);

/// Largest shard's query count over the mean (1 = perfectly balanced).
double QueriesMaxShare(const cknn::MonitoringServer& server);

/// Mirrors a batch into the referee's shadow tables.
void ApplyToReferee(const cknn::UpdateBatch& batch, Referee* referee);

/// Samples of the traced runs' depth-2 split of a batch.
struct SplitSamples {
  std::vector<double> aggregate_ms;     ///< Static AggregateBatch.
  std::vector<double> submit_ms;        ///< SubmitBatch, nothing in flight.
  std::vector<double> maintain_ms;      ///< The Drain that follows it.
  std::vector<double> maintain_cpu_ms;  ///< Process CPU during that Drain.
  std::vector<double> split_ms;         ///< Submit + Drain.
  double updates_in = 0.0;   ///< Updates in the batches, summed.
  double updates_out = 0.0;  ///< Updates after aggregation, summed.
};

/// When one split ran, in WallSeconds()/CpuSeconds() readings.
struct SplitTiming {
  double start = 0.0;  ///< SubmitBatch called.
  double end = 0.0;    ///< Drain returned.
  double cpu_s = 0.0;  ///< Process CPU from start to end.
};

/// Feeds `batch` to the drained depth-2 `server` as a SubmitBatch with
/// nothing in flight (aggregate, validate, apply, partition) and the Drain
/// that maintains it (per-shard maintenance), then times a static
/// AggregateBatch of the same input. Records spans under `request`,
/// appends to `samples` and fails the run on a non-OK status.
SplitTiming TimedSplit(const cknn::UpdateBatch& batch, std::uint64_t request,
                       cknn::MonitoringServer* server, Tracer* tracer,
                       SplitSamples* samples, Report* report);

/// Reports the `server.*` and `sharding.*` per-layer metrics (medians and
/// per-batch means) of `samples` on `server`.
void ReportSplit(const SplitSamples& samples,
                 const cknn::MonitoringServer& server, Report* report);

/// Checks a seeded sample of `samples` live queries of the drained
/// `server` against the referee. Every checked query counts as attempted;
/// a mismatch fails the run. With `perturb`, the first checked result is
/// corrupted first (the self-test's proof that the referee bites).
void RefereeCheck(const cknn::MonitoringServer& server,
                  const Referee& referee, std::uint64_t seed, int samples,
                  bool perturb, Report* report);

/// Runs SnapshotKnn from every live query position at its k on the
/// drained server and reports the `knn_search.*` metrics.
void KnnSnapshotProbe(const cknn::MonitoringServer& server,
                      const Referee& referee, Report* report);

/// Encodes `batches` as cknn_serve update frames (the client byte
/// stream of those updates).
void EncodeUpdateFrames(const cknn::UpdateBatch& batch,
                        std::vector<std::uint8_t>* out);

/// Replays FrameDecoder + DecodeMessage over `stream` in 64 KiB chunks,
/// as the serve loop reads it, and reports `protocol.decode_mb_per_s`
/// (median of five replays). Counts undecodable frames as failures.
void DecodeProbe(const std::vector<std::uint8_t>& stream, Report* report);

/// Feeds `batch` (one more workload step) through an in-process
/// ServingFrontEnd without a pump, as two TrySubmit-then-Flush windows;
/// the second, small window also carries one invalid weight update so the
/// reject path runs. Reports the `front_end.*` metrics, fails the run
/// unless exactly that update was rejected and every other one applied,
/// and advances the referee by the batch.
void FrontEndProbe(const cknn::UpdateBatch& batch,
                   cknn::MonitoringServer* server, Referee* referee,
                   Tracer* tracer, Report* report);

}  // namespace perfbench

#endif  // CKNN_PERFBENCH_PROBES_H_
