// Record/replay discipline: wrapping any generator in a
// RecordingWorkloadSource must not change what the simulation sees, the
// written trace must contain exactly the generated batches, and replaying
// it must reproduce the original run's results bit-for-bit.

#include <cstdio>
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "src/gen/network_gen.h"
#include "src/sim/experiment.h"
#include "src/trace/trace.h"
#include "src/trace/trace_source.h"

namespace cknn {
namespace {

WorkloadConfig SmallConfig(std::uint64_t seed) {
  WorkloadConfig wl;
  wl.num_objects = 50;
  wl.num_queries = 8;
  wl.k = 3;
  wl.edge_agility = 0.1;
  wl.object_agility = 0.3;
  wl.query_agility = 0.3;
  wl.seed = seed;
  return wl;
}

TEST(TraceReplayTest, RecordingTeesExactlyTheGeneratedBatches) {
  const std::string path = "trace_replay_tee.trace";
  const NetworkGenConfig net_config{.target_edges = 150, .seed = 3};
  MonitoringServer server(GenerateRoadNetwork(net_config), Algorithm::kOvh);
  Workload workload(&server.network(), &server.spatial_index(),
                    SmallConfig(11));
  Result<TraceWriter> writer =
      TraceWriter::Open(path, {{"generator", "test"}}, server.network());
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  std::vector<UpdateBatch> captured;
  RecordingWorkloadSource recorder(&workload, &*writer, &captured);

  // The batches the simulation consumes are the recorder's return values.
  std::vector<UpdateBatch> consumed;
  consumed.push_back(recorder.Initial());
  for (int ts = 0; ts < 6; ++ts) consumed.push_back(recorder.Step());
  ASSERT_TRUE(recorder.status().ok());
  ASSERT_TRUE(writer->Finish().ok());

  EXPECT_EQ(consumed, captured);
  Result<Trace> trace = ReadTrace(path);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(trace->batches, captured);
  std::remove(path.c_str());
}

TEST(TraceReplayTest, TraceSourceReplaysInOrderThenGoesQuiescent) {
  Trace trace;
  trace.network = GenerateRoadNetwork(NetworkGenConfig{.target_edges = 80});
  for (int i = 0; i < 3; ++i) {
    UpdateBatch batch;
    batch.edges.push_back(EdgeUpdate{static_cast<EdgeId>(i), 1.0 + i});
    trace.batches.push_back(batch);
  }
  TraceWorkloadSource source(&trace);
  EXPECT_EQ(source.NumSteps(), 2);
  EXPECT_EQ(source.Initial(), trace.batches[0]);
  EXPECT_EQ(source.StepsRemaining(), 2u);
  EXPECT_EQ(source.Step(), trace.batches[1]);
  EXPECT_EQ(source.Step(), trace.batches[2]);
  EXPECT_EQ(source.StepsRemaining(), 0u);
  // Exhausted: further steps are empty, not fatal.
  EXPECT_TRUE(source.Step().Empty());
  EXPECT_TRUE(source.Step().Empty());
}

TEST(TraceReplayTest, EmptyTraceIsQuiescentNotFatal) {
  Trace trace;
  trace.network = GenerateRoadNetwork(NetworkGenConfig{.target_edges = 80});
  TraceWorkloadSource source(&trace);
  EXPECT_EQ(source.NumSteps(), 0);
  EXPECT_TRUE(source.Initial().Empty());
  // A driver with an externally chosen horizon keeps stepping: every step
  // must be an empty batch, not an abort.
  EXPECT_TRUE(source.Step().Empty());
  EXPECT_TRUE(source.Step().Empty());
  EXPECT_EQ(source.StepsRemaining(), 0u);
}

TEST(TraceReplayTest, ReplayReproducesTheRecordedRunExactly) {
  const NetworkGenConfig net_config{.target_edges = 200, .seed = 9};
  const WorkloadConfig wl = SmallConfig(23);
  const int kSteps = 8;

  // Original run, capturing the batches in memory.
  MonitoringServer original(GenerateRoadNetwork(net_config), Algorithm::kIma);
  Workload workload(&original.network(), &original.spatial_index(), wl);
  std::vector<UpdateBatch> captured;
  RecordingWorkloadSource recorder(&workload, nullptr, &captured);
  ASSERT_TRUE(original.Tick(recorder.Initial()).ok());
  for (int ts = 0; ts < kSteps; ++ts) {
    ASSERT_TRUE(original.Tick(recorder.Step()).ok());
  }

  Trace trace;
  trace.network = original.network().SharedView();
  // The trace's network must carry the *initial* weights, not the final
  // ones; rebuild them from the recorded stream by starting from lengths.
  for (EdgeId e = 0; e < trace.network.NumEdges(); ++e) {
    ASSERT_TRUE(
        trace.network.SetWeight(e, trace.network.edge(e).length).ok());
  }
  trace.batches = captured;

  MonitoringServer replayed(trace.network.SharedView(), Algorithm::kIma);
  TraceWorkloadSource source(&trace);
  ASSERT_TRUE(replayed.Tick(source.Initial()).ok());
  for (int ts = 0; ts < kSteps; ++ts) {
    ASSERT_TRUE(replayed.Tick(source.Step()).ok());
  }
  for (QueryId q = 0; q < wl.num_queries; ++q) {
    const auto* want = original.ResultOf(q);
    const auto* got = replayed.ResultOf(q);
    ASSERT_NE(want, nullptr);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, *want);  // Same algorithm, same stream: exact equality.
  }
  EXPECT_EQ(replayed.timestamp(), original.timestamp());
}

TEST(TraceReplayTest, RecordedExperimentReplaysThroughEveryAlgorithm) {
  const std::string path = "trace_replay_experiment.trace";
  ExperimentSpec spec;
  spec.network.target_edges = 150;
  spec.network.seed = 5;
  spec.workload = SmallConfig(31);
  spec.timestamps = 6;
  Result<RunMetrics> recorded =
      RunRecordedExperiment(Algorithm::kGma, spec, path);
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  EXPECT_EQ(recorded->steps.size(), 6u);

  Result<Trace> trace = ReadTrace(path);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  ASSERT_EQ(trace->batches.size(), 7u);  // Initial + 6 steps.
  EXPECT_FALSE(trace->meta.empty());
  for (Algorithm algo :
       {Algorithm::kOvh, Algorithm::kIma, Algorithm::kGma}) {
    Result<RunMetrics> replayed = RunTraceReplay(algo, *trace, true);
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
    EXPECT_EQ(replayed->steps.size(), 6u);
    // Pipelined replay: same trace, asynchronous ingest (the next batch
    // is decoded while the previous tick computes).
    Result<RunMetrics> pipelined = RunTraceReplay(
        algo, *trace, /*measure_memory=*/false, /*shards=*/2,
        /*pipeline_depth=*/2);
    ASSERT_TRUE(pipelined.ok()) << pipelined.status().ToString();
    EXPECT_EQ(pipelined->steps.size(), 6u);
  }
  std::remove(path.c_str());
}

TEST(TraceReplayTest, PipelinedReplayOfInconsistentTraceReportsStatus) {
  // The pipelined submit validates synchronously, so a bad batch in the
  // middle of a trace is attributed to its exact tick at depth 2 too.
  Trace trace;
  trace.network = GenerateRoadNetwork(NetworkGenConfig{.target_edges = 80});
  UpdateBatch good;
  good.objects.push_back(
      ObjectUpdate{1, std::nullopt, NetworkPoint{0, 0.5}});
  trace.batches.push_back(good);
  UpdateBatch also_good;
  also_good.objects.push_back(
      ObjectUpdate{1, NetworkPoint{0, 0.5}, NetworkPoint{1, 0.25}});
  trace.batches.push_back(also_good);
  UpdateBatch bad;
  bad.objects.push_back(  // Old position contradicts the table.
      ObjectUpdate{1, NetworkPoint{0, 0.5}, NetworkPoint{2, 0.5}});
  trace.batches.push_back(bad);
  Result<RunMetrics> replayed =
      RunTraceReplay(Algorithm::kOvh, trace, /*measure_memory=*/false,
                     /*shards=*/1, /*pipeline_depth=*/2);
  ASSERT_FALSE(replayed.ok());
  EXPECT_NE(replayed.status().message().find("tick 2"), std::string::npos)
      << replayed.status().ToString();
}

TEST(TraceReplayTest, ReplayOfInconsistentTraceReportsStatus) {
  Trace trace;
  trace.network = GenerateRoadNetwork(NetworkGenConfig{.target_edges = 80});
  UpdateBatch bad;
  // Move of an object that never appeared: the server rejects it, and the
  // replay surfaces that as a Status instead of aborting.
  bad.objects.push_back(
      ObjectUpdate{7, NetworkPoint{0, 0.5}, NetworkPoint{1, 0.5}});
  trace.batches.push_back(bad);
  Result<RunMetrics> replayed =
      RunTraceReplay(Algorithm::kOvh, trace, false);
  EXPECT_FALSE(replayed.ok());
}

}  // namespace
}  // namespace cknn
