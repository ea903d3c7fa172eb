#include "common.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <utility>

#include "src/util/stopwatch.h"

namespace perfbench {

double WallSeconds() {
  static const cknn::Stopwatch epoch;
  return epoch.ElapsedSeconds();
}

double CpuSeconds() {
  static const cknn::CpuStopwatch epoch;
  return epoch.ElapsedSeconds();
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least pct% of samples <= it.
  const double rank =
      std::ceil(pct / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size() - 1,
                                static_cast<std::size_t>(rank) - 1);
  return values[index];
}

Tail TailOf(const std::vector<double>& values) {
  // Capped at p90: beyond it, a 20-second run measures scheduler stalls of
  // the shared host more than the program (README.md, "Tails").
  static constexpr double kLadder[] = {90.0, 80.0, 75.0, 70.0, 60.0, 50.0};
  Tail tail;
  tail.samples = values.size();
  const double n = static_cast<double>(values.size());
  for (double pct : kLadder) {
    if (n * (1.0 - pct / 100.0) >= 10.0 || pct == 50.0) {
      tail.pct = pct;
      break;
    }
  }
  tail.value = Percentile(values, tail.pct);
  return tail;
}

void ReportLatency(const std::string& prefix,
                   const std::vector<double>& samples_ms, Report* report) {
  const Tail tail = TailOf(samples_ms);
  report->Set(prefix + "_p50_ms", Percentile(samples_ms, 50.0), "ms");
  report->Set(prefix + "_tail_ms", tail.value, "ms");
  std::printf("tail %s_tail_ms is p%g over %zu samples (p75 %.4g, p90 %.4g, "
              "p95 %.4g, p99 %.4g, max %.4g ms)\n",
              prefix.c_str(), tail.pct, tail.samples,
              Percentile(samples_ms, 75.0), Percentile(samples_ms, 90.0),
              Percentile(samples_ms, 95.0), Percentile(samples_ms, 99.0),
              Percentile(samples_ms, 100.0));
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back(Metric{name, value, unit});
}

void Report::Fail(const std::string& why) {
  ++failed;
  // Cap the noise: a systematic fault fails thousands of operations.
  if (failed <= 10) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  }
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

void PrintReport(const Report& report, const Options& options) {
  std::printf("workload %s seed %llu trace %d scale %s input_digest %016llx\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, options.scale.c_str(),
              static_cast<unsigned long long>(report.input_digest));
  std::printf("failed_share %s (%llu failed / %llu attempted)\n",
              JsonNumber(report.attempted == 0
                             ? 1.0
                             : static_cast<double>(report.failed) /
                                   static_cast<double>(report.attempted))
                  .c_str(),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  for (const Report::Metric& m : report.metrics) {
    std::printf("  %-34s %14s %s\n", m.name.c_str(),
                JsonNumber(m.value).c_str(), m.unit.c_str());
  }
  auto metrics_json = [&](bool per_layer) {
    std::string json = "{";
    bool first = true;
    for (const Report::Metric& m : report.metrics) {
      if ((m.name.find('.') != std::string::npos) != per_layer) continue;
      if (!first) json += ", ";
      first = false;
      json += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
              ", \"unit\": " + JsonString(m.unit) + "}";
    }
    return json + "}";
  };
  if (options.trace) {
    std::printf("traced_e2e %s\n", metrics_json(false).c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": " + metrics_json(options.trace) + "}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

Fixture BuildFixture(const cknn::NetworkGenConfig& network,
                     const cknn::WorkloadConfig& workload,
                     const ServerShape& shape, Report* report) {
  Fixture fixture;
  double t0 = WallSeconds();
  cknn::RoadNetwork net = cknn::GenerateRoadNetwork(network);
  fixture.server = std::make_unique<cknn::MonitoringServer>(
      std::move(net), shape.algorithm, shape.shards, shape.depth);
  fixture.setup_s = WallSeconds() - t0;
  // Placement is input generation, outside the set-up window.
  fixture.workload = std::make_unique<cknn::Workload>(
      &fixture.server->network(), &fixture.server->spatial_index(), workload);
  fixture.initial = fixture.workload->Initial();
  t0 = WallSeconds();
  cknn::Status installed = fixture.server->Tick(fixture.initial);
  fixture.setup_s += WallSeconds() - t0;
  ++report->attempted;
  if (!installed.ok()) {
    report->Fail("initial install: " + installed.ToString());
  }
  return fixture;
}

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t Mix(std::uint64_t h, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
  return h;
}

template <typename T>
std::uint64_t MixValue(std::uint64_t h, T v) {
  return Mix(h, &v, sizeof(v));
}

std::uint64_t MixPoint(std::uint64_t h, const cknn::NetworkPoint& p) {
  return MixValue(MixValue(h, p.edge), p.t);
}

}  // namespace

std::uint64_t DigestBatch(std::uint64_t digest,
                          const cknn::UpdateBatch& batch) {
  std::uint64_t h = digest == 0 ? 14695981039346656037ull : digest;
  for (const cknn::ObjectUpdate& u : batch.objects) {
    h = MixValue(h, u.id);
    if (u.new_pos) h = MixPoint(h, *u.new_pos);
  }
  for (const cknn::QueryUpdate& u : batch.queries) {
    h = MixValue(MixValue(h, u.id), static_cast<int>(u.kind));
    h = MixPoint(h, u.pos);
  }
  for (const cknn::EdgeUpdate& u : batch.edges) {
    h = MixValue(MixValue(h, u.edge), u.new_weight);
  }
  return h;
}

std::size_t BatchSize(const cknn::UpdateBatch& batch) {
  return batch.objects.size() + batch.queries.size() + batch.edges.size();
}

}  // namespace perfbench
