// The standing guarantee of the repo: any recorded workload — mixed object
// movement, query install/move/terminate, and edge-weight updates — replays
// through IMA, GMA and OVH with identical per-timestamp k-NN sets. Runs
// under the `conformance` CTest label; seeds are randomized through
// tests/fuzz_util.h (CKNN_FUZZ_SEED) and scenario count through
// CKNN_FUZZ_SCALE. The committed golden trace additionally pins the format:
// it must keep parsing and must round-trip byte-identically.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/server.h"
#include "src/gen/network_gen.h"
#include "src/sim/conformance.h"
#include "src/trace/trace.h"
#include "src/trace/trace_source.h"
#include "tests/fuzz_util.h"
#include "tests/test_util.h"

namespace cknn {
namespace {

/// Records `steps` ticks of a Table-2 workload into an in-memory trace
/// (mixed object/query/edge-weight updates; no server involvement — the
/// generators are server-independent).
Trace RecordScenario(const NetworkGenConfig& net_config,
                     const WorkloadConfig& wl, int steps) {
  // A throwaway server provides the spatial index the placement code needs.
  MonitoringServer scaffold(GenerateRoadNetwork(net_config), Algorithm::kOvh);
  Workload workload(&scaffold.network(), &scaffold.spatial_index(), wl);
  Trace trace;
  trace.network = scaffold.network().SharedView();
  trace.batches.push_back(workload.Initial());
  for (int ts = 0; ts < steps; ++ts) trace.batches.push_back(workload.Step());
  return trace;
}

/// Scenario parameters derived from a fuzz seed: every case mixes object
/// movement, query movement, and weight fluctuation, with varying k and
/// distributions.
WorkloadConfig ScenarioConfig(std::uint64_t seed) {
  WorkloadConfig wl;
  wl.num_objects = 60 + seed % 40;
  wl.num_queries = 8 + seed % 8;
  wl.k = 1 + static_cast<int>(seed % 7);
  wl.object_distribution =
      (seed % 2 == 0) ? Distribution::kUniform : Distribution::kGaussian;
  wl.query_distribution =
      (seed % 3 == 0) ? Distribution::kUniform : Distribution::kGaussian;
  wl.edge_agility = 0.05 + 0.1 * static_cast<double>(seed % 3);
  wl.object_agility = 0.1 + 0.1 * static_cast<double>(seed % 4);
  wl.query_agility = 0.1 + 0.05 * static_cast<double>(seed % 5);
  wl.object_speed = 1.0 + static_cast<double>(seed % 3);
  wl.query_speed = 1.0 + static_cast<double>(seed % 2);
  wl.seed = seed;
  return wl;
}

TEST(ConformanceTest, RandomizedRecordedScenariosAgree) {
  // At least 3 scenarios even at CKNN_FUZZ_SCALE < 1; more when scaled up.
  const int cases = std::max(3, testing::FuzzIterations(4, 24));
  for (int c = 0; c < cases; ++c) {
    const std::uint64_t seed = testing::FuzzSeed(1000 + c);
    SCOPED_TRACE("case " + std::to_string(c) + " seed " +
                 std::to_string(seed));
    const NetworkGenConfig net_config{
        .target_edges = static_cast<std::size_t>(200 + 50 * (c % 3)),
        .seed = seed ^ 0xBEEF};
    const Trace trace = RecordScenario(net_config, ScenarioConfig(seed), 8);
    Result<ConformanceReport> report = CheckTraceConformance(trace);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->ok) << report->ToString();
    EXPECT_EQ(report->timestamps, 9u);
    EXPECT_GT(report->queries_compared, 0u);
  }
}

TEST(ConformanceTest, FileRoundTrippedScenarioAgrees) {
  const std::string path = "conformance_file_scenario.trace";
  const std::uint64_t seed = testing::FuzzSeed(42);
  Trace trace = RecordScenario(
      NetworkGenConfig{.target_edges = 180, .seed = seed ^ 0xF00D},
      ScenarioConfig(seed), 6);
  ASSERT_TRUE(WriteTrace(trace, path).ok());
  Result<Trace> read = ReadTrace(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  Result<ConformanceReport> report = CheckTraceConformance(*read);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok) << report->ToString();
  std::remove(path.c_str());
}

TEST(ConformanceTest, DivergenceIsDetectedAndLocated) {
  // Handcrafted scenario with a known geometry: one object at the far end
  // of edge 0, one 1-NN query at its near end.
  Trace trace;
  trace.network = testing::MakeGrid(3);
  UpdateBatch initial;
  initial.objects.push_back(
      ObjectUpdate{0, std::nullopt, NetworkPoint{0, 0.9}});
  initial.queries.push_back(QueryUpdate{0, QueryUpdate::Kind::kInstall,
                                        NetworkPoint{0, 0.1}, 1});
  trace.batches.push_back(initial);
  trace.batches.push_back(UpdateBatch{});
  MonitoringServer honest(trace.network.SharedView(), Algorithm::kOvh);
  MonitoringServer tampered(trace.network.SharedView(), Algorithm::kIma);
  // Plant an extra object only the second server knows about, right on top
  // of the query: its 1-NN result must diverge at the first comparison.
  ASSERT_TRUE(tampered.AddObject(999999, NetworkPoint{0, 0.1}).ok());
  TraceWorkloadSource source(&trace);
  Result<ConformanceReport> report = RunLockstep(
      {&honest, &tampered}, &source, source.NumSteps(), 1e-7);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->ok);
  ASSERT_TRUE(report->divergence.has_value());
  EXPECT_EQ(report->divergence->timestamp, 0u);
  EXPECT_EQ(report->divergence->baseline, Algorithm::kOvh);
  EXPECT_EQ(report->divergence->other, Algorithm::kIma);
  EXPECT_FALSE(report->divergence->detail.empty());
  EXPECT_NE(report->ToString().find("DIVERGENCE"), std::string::npos);
}

TEST(ConformanceTest, InvalidTraceSurfacesAsErrorNotDivergence) {
  Trace trace;
  trace.network = GenerateRoadNetwork(NetworkGenConfig{.target_edges = 60});
  UpdateBatch bad;
  bad.objects.push_back(  // Move of an object that never appeared.
      ObjectUpdate{3, NetworkPoint{0, 0.25}, NetworkPoint{1, 0.25}});
  trace.batches.push_back(bad);
  Result<ConformanceReport> report = CheckTraceConformance(trace);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsFailedPrecondition());
}

TEST(ConformanceTest, NeedsAtLeastTwoAlgorithms) {
  Trace trace;
  trace.network = GenerateRoadNetwork(NetworkGenConfig{.target_edges = 60});
  ConformanceOptions options;
  options.algorithms = {Algorithm::kIma};
  EXPECT_TRUE(
      CheckTraceConformance(trace, options).status().IsInvalidArgument());
}

// ------------------------------------------------------- golden trace --
//
// The committed golden trace pins the v1 format: this build must keep
// parsing it, replaying it with all algorithms in agreement, and writing
// it back byte-identically. If this test breaks, the format changed — bump
// kTraceFormatVersion and regenerate per docs/trace_format.md.

std::string GoldenPath() {
  return std::string(CKNN_TEST_DATA_DIR) + "/golden.trace";
}

using testing::ReadFileToString;

TEST(GoldenTraceTest, ParsesAndConforms) {
  Result<Trace> trace = ReadTrace(GoldenPath());
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(trace->version, kTraceFormatVersion);
  EXPECT_GT(trace->batches.size(), 1u);
  Result<ConformanceReport> report = CheckTraceConformance(*trace);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok) << report->ToString();
}

TEST(GoldenTraceTest, RoundTripsByteIdentically) {
  const std::string copy = "golden_rewrite.trace";
  Result<Trace> trace = ReadTrace(GoldenPath());
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  ASSERT_TRUE(WriteTrace(*trace, copy).ok());
  EXPECT_EQ(ReadFileToString(copy), ReadFileToString(GoldenPath()));
  std::remove(copy.c_str());
}

}  // namespace
}  // namespace cknn
