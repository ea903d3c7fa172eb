// cknn_loadgen — bursty-arrival load driver for the serving front end.
//
// Replays the million-entity scenario of docs/serving.md: installs N
// objects and Q queries, then has `--producers` threads push Table-2
// random-walk updates through a ServingFrontEnd in timed bursts (every
// `--heavy-every`-th burst is a `--heavy-factor`x arrival spike) and
// reports sustained updates/sec plus submit-to-visible latency
// percentiles.
//
//   cknn_loadgen --objects=1000000 --queries=100000 --k=10
//                --producers=4 --bursts=8

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "src/serve/loadgen.h"
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

void PrintUsage() {
  std::printf(
      "usage: cknn_loadgen [options]\n"
      "  --objects=N           object cardinality (default 1000000)\n"
      "  --queries=N           query cardinality (default 100000)\n"
      "  --k=N                 neighbors per query (default 10)\n"
      "  --algo=ima|gma|ovh    algorithm (default ima)\n"
      "  --edges=N             generated network size (default 10000)\n"
      "  --shards=N            worker shards (default 1)\n"
      "  --pipeline=D          ingest pipeline depth, 1 or 2 (default 2)\n"
      "  --producers=N         submitting threads (default 4)\n"
      "  --bursts=N            timed submission windows (default 8)\n"
      "  --heavy-every=N       every Nth burst is an arrival spike\n"
      "                        (default 4; 0 disables spikes)\n"
      "  --heavy-factor=N      spike size in workload steps (default 4)\n"
      "  --queue-capacity=N    submission queue bound (default 65536)\n"
      "  --drop                drop on a full queue (TrySubmit admission\n"
      "                        control) instead of blocking (Submit\n"
      "                        back-pressure, the default)\n"
      "  --object-agility=F    fraction of objects moving per step (0.10)\n"
      "  --query-agility=F     fraction of queries moving per step (0.10)\n"
      "  --edge-agility=F      fraction of edges updated per step (0.04)\n"
      "  --seed=N              master seed (default 42)\n");
}

bool ParseOptions(int argc, char** argv, serve::LoadScenarioConfig* opt) {
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (ParseFlag(argv[i], "--objects", &v)) {
      if (!ParseSize("--objects", v, &opt->num_objects)) return false;
    } else if (ParseFlag(argv[i], "--queries", &v)) {
      if (!ParseSize("--queries", v, &opt->num_queries)) return false;
    } else if (ParseFlag(argv[i], "--k", &v)) {
      if (!ParsePositiveInt("--k", v, &opt->k)) return false;
    } else if (ParseFlag(argv[i], "--algo", &v)) {
      if (!RequireValue("--algo", v)) return false;
      if (std::strcmp(v, "ima") == 0) {
        opt->algorithm = Algorithm::kIma;
      } else if (std::strcmp(v, "gma") == 0) {
        opt->algorithm = Algorithm::kGma;
      } else if (std::strcmp(v, "ovh") == 0) {
        opt->algorithm = Algorithm::kOvh;
      } else {
        std::fprintf(stderr, "unknown algorithm: %s\n\n", v);
        return false;
      }
    } else if (ParseFlag(argv[i], "--edges", &v)) {
      if (!ParseSize("--edges", v, &opt->network.target_edges)) return false;
    } else if (ParseFlag(argv[i], "--shards", &v)) {
      if (!ParsePositiveInt("--shards", v, &opt->shards)) return false;
    } else if (ParseFlag(argv[i], "--pipeline", &v)) {
      if (!ParsePositiveInt("--pipeline", v, &opt->pipeline_depth)) {
        return false;
      }
      if (opt->pipeline_depth > 2) {
        std::fprintf(stderr, "--pipeline depth must be 1 or 2\n\n");
        return false;
      }
    } else if (ParseFlag(argv[i], "--producers", &v)) {
      if (!ParsePositiveInt("--producers", v, &opt->producers)) return false;
    } else if (ParseFlag(argv[i], "--bursts", &v)) {
      if (!ParsePositiveInt("--bursts", v, &opt->bursts)) return false;
    } else if (ParseFlag(argv[i], "--heavy-every", &v)) {
      std::uint64_t every = 0;
      if (!ParseCount("--heavy-every", v, &every)) return false;
      opt->heavy_every = static_cast<int>(every);
    } else if (ParseFlag(argv[i], "--heavy-factor", &v)) {
      if (!ParsePositiveInt("--heavy-factor", v, &opt->heavy_factor)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "--queue-capacity", &v)) {
      if (!ParseSize("--queue-capacity", v, &opt->queue_capacity)) {
        return false;
      }
      if (opt->queue_capacity == 0) {
        std::fprintf(stderr, "--queue-capacity must be >= 1\n\n");
        return false;
      }
    } else if (ParseFlag(argv[i], "--drop", &v)) {
      if (!RejectValue("--drop", v)) return false;
      opt->block_on_full = false;
    } else if (ParseFlag(argv[i], "--object-agility", &v)) {
      if (!ParseDouble("--object-agility", v, &opt->object_agility)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "--query-agility", &v)) {
      if (!ParseDouble("--query-agility", v, &opt->query_agility)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "--edge-agility", &v)) {
      if (!ParseDouble("--edge-agility", v, &opt->edge_agility)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "--seed", &v)) {
      if (!ParseCount("--seed", v, &opt->seed)) return false;
    } else {
      std::fprintf(stderr, "unknown option: %s\n\n", argv[i]);
      return false;
    }
  }
  return true;
}

int Run(const serve::LoadScenarioConfig& config) {
  std::fprintf(stderr,
               "running %s serving scenario: N=%zu Q=%zu k=%d "
               "producers=%d bursts=%d...\n",
               AlgorithmName(config.algorithm), config.num_objects,
               config.num_queries, config.k, config.producers,
               config.bursts);
  Result<serve::LoadScenarioReport> run = serve::RunLoadScenario(config);
  if (!run.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }
  const serve::LoadScenarioReport& report = *run;
  const ServingStats& stats = report.stats;
  std::printf("setup: %.2f s (network + initial population)\n",
              report.setup_seconds);
  std::printf(
      "offered %llu, accepted %llu, applied %llu, dropped %llu full + "
      "%llu invalid\n",
      static_cast<unsigned long long>(report.offered),
      static_cast<unsigned long long>(stats.accepted),
      static_cast<unsigned long long>(stats.applied),
      static_cast<unsigned long long>(stats.rejected_queue_full),
      static_cast<unsigned long long>(stats.rejected_invalid));
  std::printf("ticks %llu, max queue depth %zu\n",
              static_cast<unsigned long long>(stats.ticks),
              stats.max_queue_depth);
  std::printf("sustained %.0f updates/sec over %.2f s\n",
              report.updates_per_sec, report.total_seconds);
  std::printf("latency p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, max %.3f ms "
              "(%llu samples)\n",
              stats.latency_p50_sec * 1e3, stats.latency_p95_sec * 1e3,
              stats.latency_p99_sec * 1e3, stats.latency_max_sec * 1e3,
              static_cast<unsigned long long>(stats.latency_samples));
  if (report.monitor_memory_bytes > 0) {
    std::printf("monitoring memory: %.1f MB\n",
                static_cast<double>(report.monitor_memory_bytes) /
                    (1024.0 * 1024.0));
  }
  if (!report.engine_error.ok()) {
    std::fprintf(stderr,
                 "engine error during run (results above are suspect): %s\n",
                 report.engine_error.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace cknn

int main(int argc, char** argv) {
  cknn::serve::LoadScenarioConfig config;
  if (!cknn::ParseOptions(argc, argv, &config)) {
    cknn::PrintUsage();
    return 2;
  }
  return cknn::Run(config);
}
