#ifndef CKNN_SIM_CONFORMANCE_H_
#define CKNN_SIM_CONFORMANCE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/server.h"
#include "src/gen/workload.h"
#include "src/trace/trace.h"
#include "src/util/result.h"

namespace cknn {

struct ConformanceOptions {
  /// Algorithms replayed in lockstep; the first one is the baseline every
  /// other one is compared against.
  std::vector<Algorithm> algorithms = {Algorithm::kOvh, Algorithm::kIma,
                                       Algorithm::kGma};
  /// Relative distance tolerance of the per-rank comparison. Result ids may
  /// legitimately differ between algorithms under exact distance ties, so
  /// equality is asserted on the sorted distance multisets.
  double tolerance = 1e-7;
  /// Worker shards of every server built for the check (1 = serial).
  int shards = 1;
  /// Ingest pipeline depth of every server built for the check (1 =
  /// synchronous ticks, 2 = asynchronous ingest; the lockstep loop drains
  /// after every tick, so the comparison stays per-timestamp).
  int pipeline_depth = 1;
};

/// \brief First point where two algorithms disagreed.
struct ConformanceDivergence {
  std::uint64_t timestamp = 0;  ///< Tick index (0 = the initial batch).
  QueryId query = kInvalidQuery;
  Algorithm baseline = Algorithm::kOvh;
  Algorithm other = Algorithm::kOvh;
  /// Human-readable description of the first diverging neighbor (rank, ids,
  /// distances) or of a result-set presence/size mismatch.
  std::string detail;
};

struct ConformanceReport {
  bool ok = true;
  std::uint64_t timestamps = 0;         ///< Ticks replayed.
  std::uint64_t queries_compared = 0;   ///< Query-result comparisons made.
  std::optional<ConformanceDivergence> divergence;

  /// One-paragraph summary ("conformance OK ..." or the divergence).
  std::string ToString() const;
};

/// \brief Replays one batch stream through several pre-built servers in
/// lockstep and compares every live query's k-NN set after each tick.
///
/// All servers must be built on views of the same network. Stops at the
/// first divergence. `steps` bounds the number of `Step()` calls after
/// `Initial()`. Infrastructure failures (a server rejecting a batch) are
/// reported as error Status, divergences through the report.
///
/// Exposed separately from `CheckTraceConformance` so tests can inject
/// deliberately inconsistent servers and generators can be checked without
/// touching disk.
Result<ConformanceReport> RunLockstep(
    const std::vector<MonitoringServer*>& servers, WorkloadSource* source,
    int steps, double tolerance);

/// Builds one monitoring server per algorithm (each with `shards` worker
/// shards and `pipeline_depth` ingest depth), each on its own
/// shared-topology view of `network` — the lockstep setup shared by
/// `CheckTraceConformance` and the CLI's generated-conformance mode.
std::vector<std::unique_ptr<MonitoringServer>> BuildLockstepServers(
    const RoadNetwork& network, const std::vector<Algorithm>& algorithms,
    int shards = 1, int pipeline_depth = 1);

/// \brief The differential oracle of this repo: replays `trace` through
/// every algorithm in `options.algorithms` and asserts per-timestamp
/// result-set equality (distance-tie tolerant). The paper's central claim —
/// IMA (Section 4) and GMA (Section 5) maintain exactly the results OVH
/// recomputes from scratch — becomes a checkable property of any recorded
/// workload.
Result<ConformanceReport> CheckTraceConformance(
    const Trace& trace, const ConformanceOptions& options = {});

}  // namespace cknn

#endif  // CKNN_SIM_CONFORMANCE_H_
