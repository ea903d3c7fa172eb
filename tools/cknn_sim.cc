// cknn_sim — command-line monitoring simulator.
//
// Runs a Table-2 style workload on a generated road network with a chosen
// algorithm and prints per-timestamp maintenance cost plus a summary, e.g.:
//
//   cknn_sim --algo=gma --edges=10000 --objects=100000 --queries=5000
//            --k=50 --timestamps=100 --edge-agility=0.04 --seed=7
//
// Use --compare to run OVH, IMA and GMA on the identical workload and
// print a comparison table.
//
// Workloads can be captured and replayed deterministically:
//
//   cknn_sim --record=run.trace --edges=500 --timestamps=20 --seed=3
//   cknn_sim --replay=run.trace --algo=ima
//   cknn_sim --replay=run.trace --conformance
//
// --conformance replays the workload through OVH, IMA and GMA in lockstep
// and verifies that every query's k-NN set is identical at every timestamp
// (exit 1 and the first divergence on failure).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/conformance.h"
#include "src/sim/experiment.h"
#include "src/trace/trace_source.h"
#include "tools/flag_util.h"

namespace cknn {
namespace {

using tools::ParseCount;
using tools::ParseDouble;
using tools::ParseFlag;
using tools::ParsePositiveInt;
using tools::ParseSize;
using tools::RejectValue;
using tools::RequireValue;

struct Options {
  Algorithm algo = Algorithm::kGma;
  bool compare = false;
  bool memory = false;
  bool conformance = false;
  std::string record_path;
  std::string replay_path;
  ExperimentSpec spec;
  /// First workload-generation flag seen (for conflict reporting): those
  /// flags have no effect when a trace defines the workload.
  const char* generator_flag = nullptr;
  bool algo_flag_used = false;
};

void PrintUsage() {
  std::printf(
      "usage: cknn_sim [options]\n"
      "  --algo=ima|gma|ovh    algorithm (default gma)\n"
      "  --compare             run all three algorithms and compare\n"
      "  --edges=N             network size (default 10000)\n"
      "  --objects=N           object cardinality (default 100000)\n"
      "  --queries=N           query cardinality (default 5000)\n"
      "  --k=N                 neighbors per query (default 50)\n"
      "  --timestamps=N        monitoring horizon (default 100)\n"
      "  --edge-agility=F      fraction of edges updated per ts (0.04)\n"
      "  --object-agility=F    fraction of objects moving per ts (0.10)\n"
      "  --query-agility=F     fraction of queries moving per ts (0.10)\n"
      "  --object-speed=F      avg edge lengths per ts (1.0)\n"
      "  --query-speed=F       avg edge lengths per ts (1.0)\n"
      "  --uniform-queries     place queries uniformly (default Gaussian)\n"
      "  --gaussian-objects    place objects Gaussian (default uniform)\n"
      "  --memory              report monitoring and whole-server memory\n"
      "  --shards=N            worker shards of the monitoring server\n"
      "                        (default 1 = serial; results are independent\n"
      "                        of the shard count — see docs/sharding.md)\n"
      "  --pipeline=D          ingest pipeline depth, 1 or 2 (default 1 =\n"
      "                        synchronous ticks; 2 overlaps the next\n"
      "                        tick's generation+aggregation+validation\n"
      "                        with the current tick's maintenance —\n"
      "                        results are identical, see docs/pipeline.md)\n"
      "  --seed=N              master seed (default 42)\n"
      "  --record=FILE         record the generated workload as a trace\n"
      "  --replay=FILE         replay a recorded trace (the network and\n"
      "                        horizon come from the file)\n"
      "  --conformance         replay through OVH, IMA and GMA in lockstep\n"
      "                        and verify identical per-timestamp k-NN\n"
      "                        results (exit 1 on divergence)\n");
}

// The flag-parsing helpers (ParseFlag, strict numerics, bare/valued flag
// rules) live in tools/flag_util.h, shared with cknn_serve and
// cknn_loadgen. They print the error; on a false return, main prints the
// usage text and exits 2.
bool ParseOptions(int argc, char** argv, Options* opt) {
  opt->spec.network.target_edges = 10000;
  opt->spec.network.seed = 1;
  opt->spec.workload.num_objects = 100000;
  opt->spec.workload.num_queries = 5000;
  opt->spec.workload.k = 50;
  opt->spec.timestamps = 100;
  // Flags that shape the generated workload; meaningless in --replay mode,
  // where the trace file defines network, workload, and horizon.
  static const char* const kGeneratorFlags[] = {
      "--edges",         "--objects",        "--queries",
      "--k",             "--timestamps",     "--edge-agility",
      "--object-agility", "--query-agility", "--object-speed",
      "--query-speed",   "--uniform-queries", "--gaussian-objects",
      "--seed"};
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (opt->generator_flag == nullptr) {
      for (const char* name : kGeneratorFlags) {
        if (ParseFlag(argv[i], name, &v)) {
          opt->generator_flag = name;
          break;
        }
      }
    }
    if (ParseFlag(argv[i], "--algo", &v)) {
      if (!RequireValue("--algo", v)) return false;
      opt->algo_flag_used = true;
      if (std::strcmp(v, "ima") == 0) {
        opt->algo = Algorithm::kIma;
      } else if (std::strcmp(v, "gma") == 0) {
        opt->algo = Algorithm::kGma;
      } else if (std::strcmp(v, "ovh") == 0) {
        opt->algo = Algorithm::kOvh;
      } else {
        std::fprintf(stderr, "unknown algorithm: %s\n\n", v);
        return false;
      }
    } else if (ParseFlag(argv[i], "--compare", &v)) {
      if (!RejectValue("--compare", v)) return false;
      opt->compare = true;
    } else if (ParseFlag(argv[i], "--memory", &v)) {
      if (!RejectValue("--memory", v)) return false;
      opt->memory = true;
    } else if (ParseFlag(argv[i], "--conformance", &v)) {
      if (!RejectValue("--conformance", v)) return false;
      opt->conformance = true;
    } else if (ParseFlag(argv[i], "--record", &v)) {
      if (!RequireValue("--record", v)) return false;
      opt->record_path = v;
    } else if (ParseFlag(argv[i], "--replay", &v)) {
      if (!RequireValue("--replay", v)) return false;
      opt->replay_path = v;
    } else if (ParseFlag(argv[i], "--edges", &v)) {
      if (!ParseSize("--edges", v, &opt->spec.network.target_edges)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "--objects", &v)) {
      if (!ParseSize("--objects", v, &opt->spec.workload.num_objects)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "--queries", &v)) {
      if (!ParseSize("--queries", v, &opt->spec.workload.num_queries)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "--k", &v)) {
      if (!ParsePositiveInt("--k", v, &opt->spec.workload.k)) return false;
    } else if (ParseFlag(argv[i], "--timestamps", &v)) {
      if (!ParsePositiveInt("--timestamps", v, &opt->spec.timestamps)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "--edge-agility", &v)) {
      if (!ParseDouble("--edge-agility", v,
                       &opt->spec.workload.edge_agility)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "--object-agility", &v)) {
      if (!ParseDouble("--object-agility", v,
                       &opt->spec.workload.object_agility)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "--query-agility", &v)) {
      if (!ParseDouble("--query-agility", v,
                       &opt->spec.workload.query_agility)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "--object-speed", &v)) {
      if (!ParseDouble("--object-speed", v,
                       &opt->spec.workload.object_speed)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "--query-speed", &v)) {
      if (!ParseDouble("--query-speed", v,
                       &opt->spec.workload.query_speed)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "--uniform-queries", &v)) {
      if (!RejectValue("--uniform-queries", v)) return false;
      opt->spec.workload.query_distribution = Distribution::kUniform;
    } else if (ParseFlag(argv[i], "--gaussian-objects", &v)) {
      if (!RejectValue("--gaussian-objects", v)) return false;
      opt->spec.workload.object_distribution = Distribution::kGaussian;
    } else if (ParseFlag(argv[i], "--shards", &v)) {
      if (!ParsePositiveInt("--shards", v, &opt->spec.shards)) return false;
    } else if (ParseFlag(argv[i], "--pipeline", &v)) {
      if (!ParsePositiveInt("--pipeline", v, &opt->spec.pipeline_depth)) {
        return false;
      }
      if (opt->spec.pipeline_depth > 2) {
        std::fprintf(stderr,
                     "--pipeline depth must be 1 or 2 (double buffering)\n\n");
        return false;
      }
    } else if (ParseFlag(argv[i], "--seed", &v)) {
      if (!ParseCount("--seed", v, &opt->spec.workload.seed)) return false;
      opt->spec.network.seed = opt->spec.workload.seed ^ 0x9E37;
    } else {
      std::fprintf(stderr, "unknown option: %s\n\n", argv[i]);
      return false;
    }
  }
  if (!opt->record_path.empty() && !opt->replay_path.empty()) {
    std::fprintf(stderr, "--record and --replay cannot be combined\n\n");
    return false;
  }
  if (opt->compare && (opt->conformance || !opt->record_path.empty())) {
    std::fprintf(stderr,
                 "--compare cannot be combined with --record/--conformance\n\n");
    return false;
  }
  if (!opt->replay_path.empty() && opt->generator_flag != nullptr) {
    std::fprintf(stderr,
                 "%s has no effect with --replay "
                 "(the trace defines network, workload, and horizon)\n\n",
                 opt->generator_flag);
    return false;
  }
  if (opt->conformance && opt->algo_flag_used) {
    std::fprintf(stderr,
                 "--algo has no effect with --conformance "
                 "(all three algorithms run in lockstep)\n\n");
    return false;
  }
  if (opt->conformance && opt->memory) {
    std::fprintf(stderr,
                 "--memory has no effect with --conformance\n\n");
    return false;
  }
  opt->spec.measure_memory = opt->memory;
  return true;
}

void PrintRun(Algorithm algo, const RunMetrics& metrics, bool memory) {
  for (std::size_t ts = 0; ts < metrics.steps.size(); ++ts) {
    std::printf("ts %4zu  wall %.6fs  cpu %.6fs", ts,
                metrics.steps[ts].seconds, metrics.steps[ts].cpu_seconds);
    if (memory) {
      std::printf("  mem %zu KB  server %zu KB",
                  metrics.steps[ts].memory_bytes / 1024,
                  metrics.steps[ts].server_bytes / 1024);
    }
    std::printf("\n");
  }
  std::printf(
      "\n%s: avg %.6f s/ts wall (%.6f cpu), max %.6f s/ts wall "
      "over %zu timestamps\n",
      AlgorithmName(algo), metrics.AvgSeconds(), metrics.AvgCpuSeconds(),
      metrics.MaxSeconds(), metrics.steps.size());
}

/// Runs `run(algo)` for OVH, IMA and GMA and prints the shared
/// comparison table (used by both the generated and the replayed
/// --compare modes).
template <typename RunFn>
int PrintComparisonTable(const std::string& title, bool memory, RunFn run) {
  SeriesTable table(title, "metric", {"OVH", "IMA", "GMA"}, "per-timestamp");
  std::vector<double> avg;
  std::vector<double> peak;
  std::vector<double> cpu;
  std::vector<double> mem;
  for (Algorithm algo :
       {Algorithm::kOvh, Algorithm::kIma, Algorithm::kGma}) {
    const Result<RunMetrics> metrics = run(algo);
    if (!metrics.ok()) {
      std::fprintf(stderr, "%s run failed: %s\n", AlgorithmName(algo),
                   metrics.status().ToString().c_str());
      return 2;
    }
    avg.push_back(metrics->AvgSeconds());
    peak.push_back(metrics->MaxSeconds());
    cpu.push_back(metrics->AvgCpuSeconds());
    mem.push_back(metrics->AvgMemoryKb());
  }
  table.AddRow("avg wall (s)", avg);
  table.AddRow("max wall (s)", peak);
  table.AddRow("avg cpu (s)", cpu);
  if (memory) table.AddRow("memory (KB)", mem);
  table.Print(std::cout);
  return 0;
}

int PrintConformance(const Result<ConformanceReport>& report) {
  if (!report.ok()) {
    std::fprintf(stderr, "conformance check failed to run: %s\n",
                 report.status().ToString().c_str());
    return 2;
  }
  std::printf("%s\n", report->ToString().c_str());
  return report->ok ? 0 : 1;
}

/// Replay modes: the network and horizon come from the trace file.
int RunReplayModes(const Options& opt) {
  Result<Trace> trace = ReadTrace(opt.replay_path);
  if (!trace.ok()) {
    std::fprintf(stderr, "cannot read trace %s: %s\n",
                 opt.replay_path.c_str(), trace.status().ToString().c_str());
    return 2;
  }
  if (opt.conformance) {
    std::fprintf(stderr, "checking conformance on %s (%zu ticks)...\n",
                 opt.replay_path.c_str(), trace->batches.size());
    ConformanceOptions conf;
    conf.shards = opt.spec.shards;
    conf.pipeline_depth = opt.spec.pipeline_depth;
    return PrintConformance(CheckTraceConformance(*trace, conf));
  }
  if (opt.compare) {
    return PrintComparisonTable(
        "Algorithm comparison (replay)", opt.memory, [&](Algorithm algo) {
          std::fprintf(stderr, "replaying %s...\n", AlgorithmName(algo));
          return RunTraceReplay(algo, *trace, opt.memory, opt.spec.shards,
                                opt.spec.pipeline_depth);
        });
  }
  std::fprintf(stderr, "replaying %s on %s (%zu edges, %zu ticks)...\n",
               AlgorithmName(opt.algo), opt.replay_path.c_str(),
               trace->network.NumEdges(), trace->batches.size());
  Result<RunMetrics> metrics =
      RunTraceReplay(opt.algo, *trace, opt.memory, opt.spec.shards,
                     opt.spec.pipeline_depth);
  if (!metrics.ok()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 metrics.status().ToString().c_str());
    return 2;
  }
  PrintRun(opt.algo, *metrics, opt.memory);
  return 0;
}

/// Generates the workload from the flags and replays it through all three
/// algorithms in lockstep, optionally recording the stream to --record.
int RunGeneratedConformance(const Options& opt) {
  const RoadNetwork net = GenerateRoadNetwork(opt.spec.network);
  const std::vector<std::unique_ptr<MonitoringServer>> servers =
      BuildLockstepServers(net, ConformanceOptions{}.algorithms,
                           opt.spec.shards, opt.spec.pipeline_depth);
  std::vector<MonitoringServer*> ptrs;
  ptrs.reserve(servers.size());
  for (const auto& server : servers) ptrs.push_back(server.get());
  Workload workload(&servers[0]->network(), &servers[0]->spatial_index(),
                    opt.spec.workload);
  std::unique_ptr<TraceWriter> writer;
  std::unique_ptr<RecordingWorkloadSource> recorder;
  WorkloadSource* source = &workload;
  if (!opt.record_path.empty()) {
    Result<TraceWriter> opened = TraceWriter::Open(
        opt.record_path, ExperimentTraceMeta(opt.spec), net);
    if (!opened.ok()) {
      std::fprintf(stderr, "cannot record trace %s: %s\n",
                   opt.record_path.c_str(),
                   opened.status().ToString().c_str());
      return 2;
    }
    writer = std::make_unique<TraceWriter>(std::move(opened).value());
    recorder =
        std::make_unique<RecordingWorkloadSource>(&workload, writer.get());
    source = recorder.get();
  }
  std::fprintf(stderr,
               "conformance: %zu edges, N=%zu, Q=%zu, k=%d, %d timestamps\n",
               net.NumEdges(), opt.spec.workload.num_objects,
               opt.spec.workload.num_queries, opt.spec.workload.k,
               opt.spec.timestamps);
  const Result<ConformanceReport> report = RunLockstep(
      ptrs, source, opt.spec.timestamps, ConformanceOptions{}.tolerance);
  if (writer != nullptr) {
    if (recorder != nullptr && !recorder->status().ok()) {
      std::fprintf(stderr, "trace recording failed: %s\n",
                   recorder->status().ToString().c_str());
      return 2;
    }
    const Status st = writer->Finish();
    if (!st.ok()) {
      std::fprintf(stderr, "trace recording failed: %s\n",
                   st.ToString().c_str());
      return 2;
    }
  }
  return PrintConformance(report);
}

int Run(const Options& opt) {
  if (!opt.replay_path.empty()) return RunReplayModes(opt);
  if (opt.conformance) return RunGeneratedConformance(opt);
  if (opt.compare) {
    return PrintComparisonTable(
        "Algorithm comparison", opt.memory,
        [&](Algorithm algo) -> Result<RunMetrics> {
          std::fprintf(stderr, "running %s...\n", AlgorithmName(algo));
          return RunExperiment(algo, opt.spec);
        });
  }
  std::fprintf(stderr, "running %s on %zu edges, N=%zu, Q=%zu, k=%d...\n",
               AlgorithmName(opt.algo), opt.spec.network.target_edges,
               opt.spec.workload.num_objects, opt.spec.workload.num_queries,
               opt.spec.workload.k);
  RunMetrics metrics;
  if (!opt.record_path.empty()) {
    Result<RunMetrics> recorded =
        RunRecordedExperiment(opt.algo, opt.spec, opt.record_path);
    if (!recorded.ok()) {
      std::fprintf(stderr, "recording failed: %s\n",
                   recorded.status().ToString().c_str());
      return 2;
    }
    std::fprintf(stderr, "trace recorded to %s\n", opt.record_path.c_str());
    metrics = std::move(recorded).value();
  } else {
    metrics = RunExperiment(opt.algo, opt.spec);
  }
  PrintRun(opt.algo, metrics, opt.memory);
  return 0;
}

}  // namespace
}  // namespace cknn

int main(int argc, char** argv) {
  cknn::Options options;
  if (!cknn::ParseOptions(argc, argv, &options)) {
    cknn::PrintUsage();
    return 2;
  }
  return cknn::Run(options);
}
