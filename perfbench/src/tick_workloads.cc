// The two closed-loop tick workloads, paper_ima and fleet_gma.
//
// Batches are pre-generated in blocks outside the timed window; each block
// is then fed to the server back to back (Tick at depth 1, SubmitBatch at
// depth 2) and, at depth 2, closed with a Drain. Only the server calls are
// timed, and each batch call is one tick sample. The traced run splits
// every batch with TimedSplit (probes.h).

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "probes.h"
#include "referee.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct TickSpec {
  const char* name;
  cknn::NetworkGenConfig network;
  cknn::WorkloadConfig workload;
  ServerShape shape;
  int block = 8;             ///< Batches pre-generated per block.
  /// setup_s is the median of `setups` set-ups: the one that builds the
  /// live server, then a throwaway one before every `setup_every`-th block.
  /// Spread over the run, the samples see the same host as the ticks do;
  /// taken back to back at the start, they would all share whatever
  /// contention the run's first second has.
  std::size_t setups = 5;
  int setup_every = 2;
  /// Monitor memory is read at the block ends after these tick counts
  /// (multiples of `block`), so the readings do not depend on how many
  /// ticks the host allowed. monitor_mb is the late reading, and the run
  /// goes on until it has been taken; the growth since the early one is
  /// printed, because the monitor grows with the ticks run.
  std::uint64_t memory_early_tick = 96;
  std::uint64_t memory_late_tick = 192;
  int referee_samples = 32;  ///< Queries the referee checks at run end.
};

TickSpec PaperImaSpec(const Options& options) {
  TickSpec spec;
  spec.name = "paper_ima";
  spec.network.target_edges = 10000;
  spec.network.seed = kNetworkSeed;
  spec.workload.seed = options.seed * 0x9E3779B97F4A7C15ull + 1;
  // Table-2 defaults: N=100k uniform, Q=5k Gaussian, k=50, f_obj=f_qry=0.10,
  // f_edg=0.04 (the WorkloadConfig defaults).
  spec.shape = {cknn::Algorithm::kIma, 4, 1};
  spec.block = 16;
  spec.setups = 11;
  spec.setup_every = 1;
  if (options.scale == "tiny") {
    spec.network.target_edges = 400;
    spec.workload.num_objects = 2000;
    spec.workload.num_queries = 60;
    spec.block = 4;
    spec.setups = 1;
    spec.memory_early_tick = 4;
    spec.memory_late_tick = 8;
    spec.referee_samples = 8;
  }
  return spec;
}

TickSpec FleetGmaSpec(const Options& options) {
  TickSpec spec;
  spec.name = "fleet_gma";
  spec.network.target_edges = 10000;
  spec.network.seed = kNetworkSeed;
  spec.workload.seed = options.seed * 0x9E3779B97F4A7C15ull + 2;
  spec.workload.num_objects = 1000000;
  spec.workload.num_queries = 2000;
  spec.workload.k = 10;
  spec.workload.object_agility = 0.2;
  spec.workload.edge_agility = 0.01;
  spec.shape = {cknn::Algorithm::kGma, 3, 2};
  spec.block = 8;
  spec.memory_early_tick = 32;
  spec.memory_late_tick = 64;
  if (options.scale == "tiny") {
    spec.network.target_edges = 400;
    spec.workload.num_objects = 5000;
    spec.workload.num_queries = 40;
    spec.block = 4;
    spec.setups = 1;
    spec.memory_early_tick = 4;
    spec.memory_late_tick = 8;
    spec.referee_samples = 8;
  }
  return spec;
}

void RunTickWorkload(const TickSpec& spec, const Options& options,
                     Tracer* tracer, Report* report) {
  const bool traced = options.trace;
  ServerShape shape = spec.shape;
  if (traced && shape.depth == 1) {
    // Tick cannot be split from outside; the traced run uses depth 2 with
    // a Drain after every SubmitBatch instead.
    shape.depth = 2;
    std::printf("note: traced run of %s uses pipeline depth 2 with a Drain "
                "after every SubmitBatch (depth-1 Tick cannot be split)\n",
                spec.name);
  }
  Fixture fx = BuildFixture(spec.network, spec.workload, shape, report);
  std::vector<double> setup_times = {fx.setup_s};
  report->input_digest = DigestBatch(report->input_digest, fx.initial);
  cknn::MonitoringServer& server = *fx.server;

  Referee referee(spec.network);
  ApplyToReferee(fx.initial, &referee);
  fx.initial = cknn::UpdateBatch();

  std::vector<double> tick_ms, lag_ms, gen_ms;
  SplitSamples split;
  double timed = 0.0, cpu = 0.0;
  std::uint64_t updates = 0, ticks = 0;
  std::vector<std::uint8_t> frames;  // First block, for the decode probe.
  const EngineCounters counters_before = ReadEngineCounters(server);
  std::optional<double> early_mb, late_mb;
  auto read_memory_mb = [&] {
    cknn::Result<std::size_t> bytes = server.TryMonitorMemoryBytes();
    if (!bytes.ok()) {
      report->Fail("TryMonitorMemoryBytes: " + bytes.status().ToString());
    }
    return bytes.ok() ? static_cast<double>(*bytes) / 1e6 : 0.0;
  };

  // A timed run lasts `seconds` of timed calls and at least until the late
  // memory reading and the last set-up sample; --batches runs exactly that
  // many batches.
  auto done = [&] {
    return options.batches > 0
               ? ticks >= static_cast<std::uint64_t>(options.batches)
               : timed >= options.seconds && late_mb.has_value() &&
                     setup_times.size() >= spec.setups;
  };
  for (int blocks = 0; !done(); ++blocks) {
    // ---- A throwaway set-up, timed for setup_s and freed at once.
    if (blocks > 0 && blocks % spec.setup_every == 0 &&
        setup_times.size() < spec.setups) {
      setup_times.push_back(
          BuildFixture(spec.network, spec.workload, shape, report).setup_s);
    }

    // ---- Generate one block, outside the timed window.
    std::vector<cknn::UpdateBatch> block;
    int block_size = spec.block;
    if (options.batches > 0) {
      block_size =
          std::min<int>(block_size, options.batches - static_cast<int>(ticks));
    }
    for (int b = 0; b < block_size; ++b) {
      const double g0 = WallSeconds();
      block.push_back(fx.workload->Step());
      const double g1 = WallSeconds();
      gen_ms.push_back((g1 - g0) * 1e3);
      tracer->Record("gen.step", g0, g1);
      report->input_digest = DigestBatch(report->input_digest, block.back());
      ApplyToReferee(block.back(), &referee);
    }
    if (traced && frames.empty()) {
      for (const cknn::UpdateBatch& batch : block) {
        EncodeUpdateFrames(batch, &frames);
      }
    }

    // ---- Feed the block; only the server calls are timed.
    double prev_return = 0.0;
    for (std::size_t b = 0; b < block.size(); ++b) {
      const cknn::UpdateBatch& batch = block[b];
      ++report->attempted;
      double t0 = 0.0, t1 = 0.0, call_cpu = 0.0;
      if (traced) {
        const SplitTiming s =
            TimedSplit(batch, ticks, &server, tracer, &split, report);
        t0 = s.start;
        t1 = s.end;
        call_cpu = s.cpu_s;
      } else {
        t0 = WallSeconds();
        const double c0 = CpuSeconds();
        cknn::Status st =
            shape.depth == 1 ? server.Tick(batch) : server.SubmitBatch(batch);
        if (!st.ok()) report->Fail("tick: " + st.ToString());
        t1 = WallSeconds();
        call_cpu = CpuSeconds() - c0;
      }
      tick_ms.push_back((t1 - t0) * 1e3);
      if (!traced && shape.depth == 2 && b + 1 == block.size()) {
        // The block's last batch is maintained by the Drain that ends the
        // block. It is an artifact of generating in blocks, so it is timed
        // and its CPU counted, but it is not a tick sample.
        const double c0 = CpuSeconds();
        cknn::Status drained = server.Drain();
        if (!drained.ok()) report->Fail("Drain: " + drained.ToString());
        t1 = WallSeconds();
        call_cpu += CpuSeconds() - c0;
      }
      // Closed loop: a batch is due when the previous call returns.
      if (prev_return > 0.0) lag_ms.push_back((t0 - prev_return) * 1e3);
      prev_return = WallSeconds();
      timed += t1 - t0;
      cpu += call_cpu;
      updates += BatchSize(batch);
      ++ticks;
    }
    if (!early_mb && ticks >= spec.memory_early_tick) {
      early_mb = read_memory_mb();
    }
    if (!late_mb && ticks >= spec.memory_late_tick) late_mb = read_memory_mb();
  }
  // Short --batches runs: read at the end.
  if (!early_mb) early_mb = read_memory_mb();
  if (!late_mb) late_mb = read_memory_mb();

  // ---- End-to-end metrics.
  report->Set("setup_s", Percentile(setup_times, 50.0), "s");
  std::printf("setup_s is the median of %zu set-ups (min %.4g, max %.4g s)\n",
              setup_times.size(),
              *std::min_element(setup_times.begin(), setup_times.end()),
              *std::max_element(setup_times.begin(), setup_times.end()));
  ReportLatency("tick", tick_ms, report);
  report->Set("cpu_us_per_update",
              updates == 0 ? 0.0 : cpu / static_cast<double>(updates) * 1e6,
              "us");
  report->Set("monitor_mb", *late_mb, "MB");
  std::printf("monitor memory %.3f MB at tick %llu, %.3f MB at tick %llu: "
              "growth %+.3f MB\n",
              *early_mb,
              static_cast<unsigned long long>(
                  std::min(spec.memory_early_tick, ticks)),
              *late_mb,
              static_cast<unsigned long long>(
                  std::min(spec.memory_late_tick, ticks)),
              *late_mb - *early_mb);
  std::printf("ticks %llu updates %llu timed_s %.3f\n",
              static_cast<unsigned long long>(ticks),
              static_cast<unsigned long long>(updates), timed);

  // ---- Per-layer metrics (traced run).
  if (traced) {
    report->Set("gen.step_ms", Percentile(gen_ms, 50.0), "ms");
    ReportSplit(split, server, report);
    ReportEngineCounters(counters_before, ReadEngineCounters(server),
                         static_cast<double>(ticks), report);
    FrontEndProbe(fx.workload->Step(), &server, &referee, tracer, report);
    DecodeProbe(frames, report);
    report->Set("client.lag_p50_ms", Percentile(lag_ms, 50.0), "ms");
    report->Set("client.lag_tail_ms", TailOf(lag_ms).value, "ms");
  }

  // ---- Referee, on every run.
  RefereeCheck(server, referee, options.seed, spec.referee_samples,
               options.perturb, report);
  if (traced) KnnSnapshotProbe(server, referee, report);
}

}  // namespace

void RunPaperIma(const Options& options, Tracer* tracer, Report* report) {
  RunTickWorkload(PaperImaSpec(options), options, tracer, report);
}

void RunFleetGma(const Options& options, Tracer* tracer, Report* report) {
  RunTickWorkload(FleetGmaSpec(options), options, tracer, report);
}

}  // namespace perfbench
