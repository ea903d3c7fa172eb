#ifndef CKNN_PERFBENCH_COMMON_H_
#define CKNN_PERFBENCH_COMMON_H_

// Shared plumbing of the benchmark driver: clocks, percentiles, the
// command line, the result record, and the server fixture every workload
// starts from.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/monitor.h"
#include "src/core/server.h"
#include "src/gen/network_gen.h"
#include "src/gen/workload.h"

namespace perfbench {

/// Seed of the road network every workload runs on. The network is the
/// fixed map; `--seed` draws the entities and their movement on it.
inline constexpr std::uint64_t kNetworkSeed = 1;

/// Wall seconds since the first call, on cknn::Stopwatch's monotonic clock.
double WallSeconds();
/// CPU seconds of the whole process (all threads) since the first call,
/// from cknn::CpuStopwatch.
double CpuSeconds();

/// Nearest-rank percentile of `values` (`pct` in [0, 100]); 0 when empty.
double Percentile(std::vector<double> values, double pct);

/// The tail the benchmark reports: the highest percentile of a fixed ladder
/// (50 ... 90) that still has at least ten samples beyond it.
struct Tail {
  double pct = 50.0;
  double value = 0.0;
  std::size_t samples = 0;
};
Tail TailOf(const std::vector<double>& values);

/// Sets `<prefix>_p50_ms` and `<prefix>_tail_ms` from `samples_ms` and
/// prints which percentile the tail is and over how many samples.
struct Report;
void ReportLatency(const std::string& prefix,
                   const std::vector<double>& samples_ms, Report* report);

/// Command line of the driver binary.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// "full" (the registered workloads) or "tiny" (self-test scale).
  std::string scale = "full";
  /// Self-test hook: corrupt one result before the referee sees it.
  bool perturb = false;
  /// Directory for the trace file (traced runs).
  std::string out_dir = ".bench_build";
  /// Tick workloads: run exactly this many batches instead of `seconds`
  /// (0 = time-bounded). Makes every count reproducible for the self-test.
  int batches = 0;
};

/// Everything one run prints. `metrics` keeps insertion order. Per-layer
/// metric names are `layer.metric`; end-to-end names carry no dot.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// FNV-1a digest of the generated inputs: equal seeds give equal digests.
  std::uint64_t input_digest = 0;

  void Set(const std::string& name, double value, const std::string& unit);
  /// Records one failed operation with a reason (printed on stderr).
  void Fail(const std::string& why);
};

/// Prints `report` as human lines plus the final one-line JSON object:
/// the end-to-end metrics, or with `options.trace` the per-layer ones
/// (the traced run's end-to-end figures then go on a `traced_e2e` line,
/// from which run.py derives the tracing overhead).
void PrintReport(const Report& report, const Options& options);

/// The server and its input generator.
struct Fixture {
  std::unique_ptr<cknn::MonitoringServer> server;
  std::unique_ptr<cknn::Workload> workload;
  cknn::UpdateBatch initial;  ///< The install batch (kept for the referee).
  double setup_s = 0.0;       ///< Wall time of the set-up.
};

struct ServerShape {
  cknn::Algorithm algorithm = cknn::Algorithm::kIma;
  int shards = 1;
  int depth = 1;
};

/// Builds the fixture once (network generation, spatial index, server
/// construction, initial install) and times it into `setup_s`. Placement of
/// the initial entities is input generation and is not timed.
Fixture BuildFixture(const cknn::NetworkGenConfig& network,
                     const cknn::WorkloadConfig& workload,
                     const ServerShape& shape, Report* report);

/// Folds `batch` into a running FNV-1a digest.
std::uint64_t DigestBatch(std::uint64_t digest, const cknn::UpdateBatch& batch);

/// Updates in a batch (all three streams).
std::size_t BatchSize(const cknn::UpdateBatch& batch);

}  // namespace perfbench

#endif  // CKNN_PERFBENCH_COMMON_H_
