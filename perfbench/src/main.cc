// cknn_perfbench: the repository benchmark's driver binary (README.md in
// the benchmark directory). perfbench/run.py builds it and runs
//
//   cknn_perfbench --workload <paper_ima|fleet_gma|serve_mixed>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--scale full|tiny] [--batches n] [--perturb 1]
//                  [--out-dir dir]
//
// It prints human lines and, last, one JSON object with the run's
// correctness, operation counts and metrics. Exit code 0 unless the
// command line is wrong or the trace file cannot be written.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "tracer.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "cknn_perfbench: %s\nusage: cknn_perfbench --workload "
               "<paper_ima|fleet_gma|serve_mixed> --seed <n> --seconds <s> "
               "--trace <0|1> [--scale full|tiny] [--batches n] "
               "[--perturb 0|1] [--out-dir dir]\n",
               why);
  return 2;
}

bool ParseUnsigned(const std::string& s, unsigned long long* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtoull(s.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    unsigned long long n = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed" && ParseUnsigned(value, &n)) {
      options.seed = n;
    } else if (flag == "--seconds" && ParseUnsigned(value, &n) && n > 0) {
      options.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
    } else if (flag == "--scale" && (value == "full" || value == "tiny")) {
      options.scale = value;
    } else if (flag == "--batches" && ParseUnsigned(value, &n)) {
      options.batches = static_cast<int>(n);
    } else if (flag == "--perturb" && (value == "0" || value == "1")) {
      options.perturb = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage(("bad flag or value: " + flag + " " + value).c_str());
    }
  }

  perfbench::Tracer tracer(options.trace);
  perfbench::Report report;
  if (options.workload == "paper_ima") {
    perfbench::RunPaperIma(options, &tracer, &report);
  } else if (options.workload == "fleet_gma") {
    perfbench::RunFleetGma(options, &tracer, &report);
  } else if (options.workload == "serve_mixed") {
    perfbench::RunServeMixed(options, &tracer, &report);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }

  if (options.trace) {
    const std::string path = options.out_dir + "/trace-" + options.workload +
                             "-seed" + std::to_string(options.seed) + ".json";
    tracer.PrintLayerTable();
    if (!tracer.WriteChromeTrace(path)) {
      std::fprintf(stderr, "cknn_perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("trace written to %s\n", path.c_str());
  }
  perfbench::PrintReport(report, options);
  return 0;
}
