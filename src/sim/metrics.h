#ifndef CKNN_SIM_METRICS_H_
#define CKNN_SIM_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cknn {

/// \brief Fixed-capacity reservoir of latency samples with nearest-rank
/// percentiles (the p50/p95/p99 columns of the serving figures).
///
/// Uses Vitter's Algorithm R with an internal splitmix64 generator seeded
/// at construction, so two runs fed the same sample sequence produce the
/// same percentiles — benchmarks and tests stay reproducible without
/// touching any global RNG. Until `capacity` samples have arrived the
/// reservoir holds every sample and percentiles are exact.
///
/// Not internally synchronized: the owner serializes access (e.g.
/// `ServingFrontEnd` guards its reservoir with `engine_mu_` and
/// annotates it `CKNN_GUARDED_BY` — see docs/static_analysis.md).
class LatencyReservoir {
 public:
  explicit LatencyReservoir(std::size_t capacity = 4096,
                            std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Records one sample (seconds, but any unit works).
  void Add(double sample);

  /// Samples offered so far (not the retained count).
  std::uint64_t count() const { return count_; }

  /// Largest sample ever offered (tracked exactly, outside the reservoir).
  double max() const { return max_; }

  /// Nearest-rank percentile over the retained samples; `pct` in [0, 100].
  /// 0 with no samples.
  double Percentile(double pct) const;

  void Clear();

 private:
  std::size_t capacity_;
  std::uint64_t state_;
  std::uint64_t count_ = 0;
  double max_ = 0.0;
  std::vector<double> samples_;
};

/// Measurements of one simulated timestamp. Wall and CPU time are recorded
/// separately: on a serial single-shard run they coincide, but a sharded
/// tick burns CPU on several cores per wall second, and a pipelined tick's
/// submit window overlaps the previous tick's maintenance — conflating the
/// two silently misreports both (the y-axis of Figures 13–19 is per-tick
/// *elapsed* cost, which is the wall number).
struct TimestepMetrics {
  double seconds = 0.0;      ///< Wall-clock time of the tick's window.
  /// Process CPU time (all threads) in the step's CPU window. At pipeline
  /// depth 1 the window is the submit call (== the wall window); at depth
  /// >= 2 the windows are contiguous across steps — they include the
  /// generation/decode gap, where the in-flight tick's maintenance burns
  /// CPU — so the run total is complete (it then also counts the
  /// driver-side generation CPU).
  double cpu_seconds = 0.0;
  std::size_t memory_bytes = 0;  ///< Monitoring-structure bytes after it.
  /// Whole-server bytes after it (MonitoringServer::MemoryBytes): the
  /// monitoring structures plus the object table, network and index.
  std::size_t server_bytes = 0;
};

/// Measurements of a whole monitoring run (the per-figure data points).
struct RunMetrics {
  std::vector<TimestepMetrics> steps;

  double TotalSeconds() const;
  /// Mean per-timestamp wall time — the y-axis of Figures 13-17 and 19.
  double AvgSeconds() const;
  double MaxSeconds() const;
  double TotalCpuSeconds() const;
  /// Mean per-timestamp process CPU time (all threads).
  double AvgCpuSeconds() const;
  double MaxCpuSeconds() const;
  /// Mean monitoring memory in KBytes — the y-axis of Figure 18.
  double AvgMemoryKb() const;
  /// Nearest-rank percentile of the per-step wall times; `pct` in
  /// [0, 100]. Exact (no sampling) — use LatencyReservoir when the
  /// population is unbounded.
  double PercentileSeconds(double pct) const;
};

}  // namespace cknn

#endif  // CKNN_SIM_METRICS_H_
