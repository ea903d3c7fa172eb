#ifndef CKNN_SIM_EXPERIMENT_H_
#define CKNN_SIM_EXPERIMENT_H_

#include <ostream>
#include <string>
#include <vector>

#include "src/core/server.h"
#include "src/gen/network_gen.h"
#include "src/gen/workload.h"
#include "src/sim/metrics.h"
#include "src/sim/simulation.h"
#include "src/trace/trace.h"

namespace cknn {

/// \brief One experiment configuration: a network, a Table-2 workload, and
/// a horizon. Networks and workloads are regenerated deterministically from
/// their seeds, so every algorithm sees byte-identical inputs.
struct ExperimentSpec {
  NetworkGenConfig network;
  WorkloadConfig workload;
  int timestamps = 100;
  bool measure_memory = false;
  /// Worker shards of the monitoring server (1 = the paper's serial
  /// algorithm; see docs/sharding.md). Does not affect the update stream
  /// or the per-query results, only how maintenance is executed.
  int shards = 1;
  /// Ingest pipeline depth of the monitoring server (1 = synchronous
  /// ticks, 2 = double-buffered asynchronous ingest; docs/pipeline.md).
  /// Like `shards`, an execution detail: results are identical.
  int pipeline_depth = 1;
};

/// Runs one algorithm on one spec and returns its run metrics.
RunMetrics RunExperiment(Algorithm algorithm, const ExperimentSpec& spec);

/// Runs one algorithm on a pre-built network with a Brinkhoff workload
/// (Figure 19). The server runs on a shared-topology view of
/// `base_network` (its weights evolve independently).
RunMetrics RunBrinkhoffExperiment(Algorithm algorithm,
                                  const RoadNetwork& base_network,
                                  const BrinkhoffWorkload::Config& config,
                                  int timestamps, int shards = 1,
                                  int pipeline_depth = 1);

/// Self-describing trace-header metadata for a spec: everything needed to
/// regenerate the workload from scratch (the network itself is embedded in
/// the trace alongside).
std::vector<TraceMeta> ExperimentTraceMeta(const ExperimentSpec& spec);

/// Runs one algorithm on one spec while recording the network and every
/// consumed update batch to `trace_path` (see docs/trace_format.md). The
/// written trace replays the run exactly — against this or any other
/// algorithm.
Result<RunMetrics> RunRecordedExperiment(Algorithm algorithm,
                                         const ExperimentSpec& spec,
                                         const std::string& trace_path);

/// Replays a recorded trace against one algorithm on a shared-topology
/// view of the trace's network, timing each tick (wall + process CPU). The horizon is
/// the trace's own. Unlike the generator paths, semantically invalid
/// batches (a trace recorded against a different network state) surface
/// as error Status instead of aborting — the pipelined submit validates
/// synchronously, so tick attribution is exact at every depth. With
/// `pipeline_depth == 2` the next batch is decoded from the trace while
/// the server maintains the current one.
Result<RunMetrics> RunTraceReplay(Algorithm algorithm, const Trace& trace,
                                  bool measure_memory, int shards = 1,
                                  int pipeline_depth = 1);

/// \brief Paper-style series table: one row per x-value, one column per
/// series (typically OVH / IMA / GMA), printed as an aligned text table.
class SeriesTable {
 public:
  SeriesTable(std::string title, std::string x_label,
              std::vector<std::string> series_names, std::string unit);

  void AddRow(const std::string& x, const std::vector<double>& values);

  void Print(std::ostream& os) const;

 private:
  std::string title_;
  std::string x_label_;
  std::vector<std::string> series_names_;
  std::string unit_;
  struct Row {
    std::string x;
    std::vector<double> values;
  };
  std::vector<Row> rows_;
};

}  // namespace cknn

#endif  // CKNN_SIM_EXPERIMENT_H_
