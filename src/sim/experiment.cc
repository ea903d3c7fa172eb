#include "src/sim/experiment.h"

#include <iomanip>
#include <sstream>

#include "src/trace/trace_source.h"
#include "src/util/macros.h"
#include "src/util/stopwatch.h"

namespace cknn {

RunMetrics RunExperiment(Algorithm algorithm, const ExperimentSpec& spec) {
  RoadNetwork net = GenerateRoadNetwork(spec.network);
  MonitoringServer server(std::move(net), algorithm, spec.shards,
                          spec.pipeline_depth);
  Workload workload(&server.network(), &server.spatial_index(),
                    spec.workload);
  SimulationOptions options;
  options.timestamps = spec.timestamps;
  options.measure_memory = spec.measure_memory;
  return RunSimulation(&server, &workload, options);
}

RunMetrics RunBrinkhoffExperiment(Algorithm algorithm,
                                  const RoadNetwork& base_network,
                                  const BrinkhoffWorkload::Config& config,
                                  int timestamps, int shards,
                                  int pipeline_depth) {
  MonitoringServer server(base_network.SharedView(), algorithm, shards,
                          pipeline_depth);
  BrinkhoffWorkload workload(&server.network(), config);
  SimulationOptions options;
  options.timestamps = timestamps;
  return RunSimulation(&server, &workload, options);
}

namespace {

std::string FormatDouble(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

std::vector<TraceMeta> ExperimentTraceMeta(const ExperimentSpec& spec) {
  const WorkloadConfig& wl = spec.workload;
  const auto distribution_name = [](Distribution d) {
    return d == Distribution::kUniform ? "uniform" : "gaussian";
  };
  return {
      {"generator", "table2"},
      {"seed", std::to_string(wl.seed)},
      {"network_seed", std::to_string(spec.network.seed)},
      {"target_edges", std::to_string(spec.network.target_edges)},
      {"objects", std::to_string(wl.num_objects)},
      {"queries", std::to_string(wl.num_queries)},
      {"object_distribution", distribution_name(wl.object_distribution)},
      {"query_distribution", distribution_name(wl.query_distribution)},
      {"k", std::to_string(wl.k)},
      {"timestamps", std::to_string(spec.timestamps)},
      {"edge_agility", FormatDouble(wl.edge_agility)},
      {"object_agility", FormatDouble(wl.object_agility)},
      {"object_speed", FormatDouble(wl.object_speed)},
      {"query_agility", FormatDouble(wl.query_agility)},
      {"query_speed", FormatDouble(wl.query_speed)},
      {"weight_magnitude", FormatDouble(wl.weight_magnitude)},
      {"object_gaussian_stddev", FormatDouble(wl.object_gaussian_stddev)},
      {"query_gaussian_stddev", FormatDouble(wl.query_gaussian_stddev)},
  };
}

Result<RunMetrics> RunRecordedExperiment(Algorithm algorithm,
                                         const ExperimentSpec& spec,
                                         const std::string& trace_path) {
  RoadNetwork net = GenerateRoadNetwork(spec.network);
  MonitoringServer server(std::move(net), algorithm, spec.shards,
                          spec.pipeline_depth);
  Result<TraceWriter> writer = TraceWriter::Open(
      trace_path, ExperimentTraceMeta(spec), server.network());
  if (!writer.ok()) return writer.status();
  Workload workload(&server.network(), &server.spatial_index(),
                    spec.workload);
  RecordingWorkloadSource recorder(&workload, &*writer);
  SimulationOptions options;
  options.timestamps = spec.timestamps;
  options.measure_memory = spec.measure_memory;
  RunMetrics metrics = RunSimulation(&server, &recorder, options);
  CKNN_RETURN_NOT_OK(recorder.status());
  CKNN_RETURN_NOT_OK(writer->Finish());
  return metrics;
}

Result<RunMetrics> RunTraceReplay(Algorithm algorithm, const Trace& trace,
                                  bool measure_memory, int shards,
                                  int pipeline_depth) {
  MonitoringServer server(trace.network.SharedView(), algorithm, shards,
                          pipeline_depth);
  TraceWorkloadSource source(&trace);
  {
    const Status st = server.Tick(source.Initial());
    if (!st.ok()) {
      // Tick indices match the trace's batch order and the conformance
      // report's timestamps: tick 0 is the initial batch.
      return Status::FailedPrecondition("replay tick 0 rejected: " +
                                        st.message());
    }
  }
  RunMetrics metrics;
  const int steps = source.NumSteps();
  metrics.steps.reserve(static_cast<std::size_t>(steps));
  // Same CPU-window convention as RunSimulation: per-submit windows at
  // depth 1, contiguous windows (decode + submit) at depth >= 2, where
  // the in-flight tick burns CPU while the next batch is decoded.
  const bool pipelined = server.pipeline_depth() > 1;
  CpuStopwatch cpu;
  for (int ts = 0; ts < steps; ++ts) {
    // On a pipelined server the batch is pulled from the trace while the
    // previous tick's maintenance is still running.
    const UpdateBatch batch = source.Step();
    if (!pipelined) cpu.Reset();
    Stopwatch wall;
    const Status st = server.SubmitBatch(batch);
    if (measure_memory && st.ok()) CKNN_CHECK(server.Drain().ok());
    TimestepMetrics step;
    step.seconds = wall.ElapsedSeconds();
    step.cpu_seconds = cpu.ElapsedSeconds();
    cpu.Reset();
    if (!st.ok()) {
      return Status::FailedPrecondition("replay tick " +
                                        std::to_string(ts + 1) +
                                        " rejected: " + st.message());
    }
    if (measure_memory) {
      step.memory_bytes = server.MonitorMemoryBytes();
      step.server_bytes = server.MemoryBytes();
    }
    metrics.steps.push_back(step);
  }
  {
    Stopwatch wall;
    cpu.Reset();
    CKNN_CHECK(server.Drain().ok());
    if (!metrics.steps.empty()) {
      metrics.steps.back().seconds += wall.ElapsedSeconds();
      metrics.steps.back().cpu_seconds += cpu.ElapsedSeconds();
    }
  }
  return metrics;
}

SeriesTable::SeriesTable(std::string title, std::string x_label,
                         std::vector<std::string> series_names,
                         std::string unit)
    : title_(std::move(title)),
      x_label_(std::move(x_label)),
      series_names_(std::move(series_names)),
      unit_(std::move(unit)) {}

void SeriesTable::AddRow(const std::string& x,
                         const std::vector<double>& values) {
  CKNN_CHECK(values.size() == series_names_.size());
  rows_.push_back(Row{x, values});
}

void SeriesTable::Print(std::ostream& os) const {
  os << "\n== " << title_ << " (" << unit_ << ") ==\n";
  os << std::left << std::setw(18) << x_label_;
  for (const std::string& name : series_names_) {
    os << std::right << std::setw(14) << name;
  }
  os << '\n';
  for (const Row& row : rows_) {
    os << std::left << std::setw(18) << row.x;
    for (double v : row.values) {
      os << std::right << std::setw(14) << std::fixed
         << std::setprecision(6) << v;
    }
    os << '\n';
  }
  os.flush();
}

}  // namespace cknn
