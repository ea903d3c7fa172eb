#include "probes.h"

#include <algorithm>
#include <string>

#include "src/core/gma.h"
#include "src/core/ima.h"
#include "src/core/knn_search.h"
#include "src/serve/front_end.h"
#include "src/serve/protocol.h"
#include "src/util/rng.h"

namespace perfbench {

namespace {

void AddImaStats(const cknn::ImaEngine::Stats& s, EngineCounters* c) {
  c->full_recomputes += s.full_recomputes;
  c->reroots += s.reroots;
  c->rebuilds += s.rebuilds;
  c->updates_routed += s.updates_routed;
  c->updates_ignored += s.updates_ignored;
  c->routed_per_shard.push_back(s.updates_routed);
}

}  // namespace

EngineCounters ReadEngineCounters(cknn::MonitoringServer& server) {
  EngineCounters c;
  for (int i = 0; i < server.num_shards(); ++i) {
    cknn::Monitor& m = server.shards().monitor(i);
    if (auto* ima = dynamic_cast<cknn::Ima*>(&m)) {
      AddImaStats(ima->engine().stats(), &c);
    } else if (auto* gma = dynamic_cast<cknn::Gma*>(&m)) {
      AddImaStats(gma->engine().stats(), &c);
      c.evaluations += gma->stats().evaluations;
      c.affected_by_object += gma->stats().affected_by_object;
      c.affected_by_edge += gma->stats().affected_by_edge;
      c.affected_by_node_change += gma->stats().affected_by_node_change;
    }
  }
  return c;
}

void ReportEngineCounters(const EngineCounters& before,
                          const EngineCounters& after, double ticks,
                          Report* report) {
  const double n = ticks > 0 ? ticks : 1.0;
  auto per_tick = [&](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a) / n;
  };
  const double routed = per_tick(before.updates_routed, after.updates_routed);
  const double ignored =
      per_tick(before.updates_ignored, after.updates_ignored);
  report->Set("ima.updates_routed", routed, "count");
  report->Set("ima.updates_ignored", ignored, "count");
  report->Set("ima.routed_share",
              routed + ignored > 0 ? routed / (routed + ignored) : 0.0,
              "ratio");
  std::uint64_t max_shard = 0;
  for (std::size_t i = 0; i < after.routed_per_shard.size(); ++i) {
    const std::uint64_t base =
        i < before.routed_per_shard.size() ? before.routed_per_shard[i] : 0;
    max_shard = std::max(max_shard, after.routed_per_shard[i] - base);
  }
  report->Set("ima.updates_routed_max_shard",
              static_cast<double>(max_shard) / n, "count");
  report->Set("ima.full_recomputes",
              per_tick(before.full_recomputes, after.full_recomputes),
              "count");
  report->Set("ima.reroots", per_tick(before.reroots, after.reroots),
              "count");
  report->Set("ima.rebuilds", per_tick(before.rebuilds, after.rebuilds),
              "count");
  report->Set("gma.evaluations",
              per_tick(before.evaluations, after.evaluations), "count");
  report->Set("gma.affected_by_object",
              per_tick(before.affected_by_object, after.affected_by_object),
              "count");
  report->Set("gma.affected_by_edge",
              per_tick(before.affected_by_edge, after.affected_by_edge),
              "count");
  report->Set("gma.affected_by_node_change",
              per_tick(before.affected_by_node_change,
                       after.affected_by_node_change),
              "count");
}

double QueriesMaxShare(const cknn::MonitoringServer& server) {
  std::size_t total = 0;
  std::size_t largest = 0;
  for (int i = 0; i < server.num_shards(); ++i) {
    const std::size_t n = server.shards().monitor(i).NumQueries();
    total += n;
    largest = std::max(largest, n);
  }
  if (total == 0) return 0.0;
  return static_cast<double>(largest) * server.num_shards() /
         static_cast<double>(total);
}

SplitTiming TimedSplit(const cknn::UpdateBatch& batch, std::uint64_t request,
                       cknn::MonitoringServer* server, Tracer* tracer,
                       SplitSamples* samples, Report* report) {
  SplitTiming timing;
  const Tracer::SpanId tick = tracer->Begin("tick", Tracer::kNoSpan, request);
  timing.start = WallSeconds();
  const double c0 = CpuSeconds();
  const Tracer::SpanId submit = tracer->Begin("server.submit", tick, request);
  cknn::Status submitted = server->SubmitBatch(batch);
  tracer->End(submit);
  const double tm = WallSeconds();
  const double cm = CpuSeconds();
  const Tracer::SpanId maintain =
      tracer->Begin("sharding.maintain", tick, request);
  cknn::Status drained = server->Drain();
  tracer->End(maintain);
  timing.end = WallSeconds();
  const double c1 = CpuSeconds();
  tracer->End(tick);
  timing.cpu_s = c1 - c0;
  if (!submitted.ok()) report->Fail("SubmitBatch: " + submitted.ToString());
  if (!drained.ok()) report->Fail("Drain: " + drained.ToString());

  const double a0 = WallSeconds();
  const cknn::UpdateBatch folded =
      cknn::MonitoringServer::AggregateBatch(batch);
  const double a1 = WallSeconds();
  tracer->Record("server.aggregate", a0, a1, Tracer::kNoSpan, request);

  samples->aggregate_ms.push_back((a1 - a0) * 1e3);
  samples->submit_ms.push_back((tm - timing.start) * 1e3);
  samples->maintain_ms.push_back((timing.end - tm) * 1e3);
  samples->maintain_cpu_ms.push_back((c1 - cm) * 1e3);
  samples->split_ms.push_back((timing.end - timing.start) * 1e3);
  samples->updates_in += static_cast<double>(BatchSize(batch));
  samples->updates_out += static_cast<double>(BatchSize(folded));
  return timing;
}

void ReportSplit(const SplitSamples& samples,
                 const cknn::MonitoringServer& server, Report* report) {
  const double batches = static_cast<double>(
      std::max<std::size_t>(samples.split_ms.size(), 1));
  const double submit = Percentile(samples.submit_ms, 50.0);
  const double split = Percentile(samples.split_ms, 50.0);
  const double maintain = Percentile(samples.maintain_ms, 50.0);
  const double maintain_cpu = Percentile(samples.maintain_cpu_ms, 50.0);
  report->Set("server.submit_ms", submit, "ms");
  report->Set("server.aggregate_ms", Percentile(samples.aggregate_ms, 50.0),
              "ms");
  report->Set("server.submit_share", split > 0 ? submit / split : 0.0,
              "ratio");
  report->Set("server.updates_in", samples.updates_in / batches, "count");
  report->Set("server.updates_out", samples.updates_out / batches, "count");
  report->Set("server.fold_ratio",
              samples.updates_in > 0
                  ? samples.updates_out / samples.updates_in
                  : 0.0,
              "ratio");
  report->Set("sharding.maintain_ms", maintain, "ms");
  report->Set("sharding.maintain_cpu_ms", maintain_cpu, "ms");
  report->Set("sharding.efficiency",
              maintain > 0 ? maintain_cpu / (maintain * server.num_shards())
                           : 0.0,
              "ratio");
  report->Set("sharding.queries_max_share", QueriesMaxShare(server), "ratio");
}

void ApplyToReferee(const cknn::UpdateBatch& batch, Referee* referee) {
  for (const cknn::ObjectUpdate& u : batch.objects) {
    referee->SetObject(u.id, u.new_pos);
  }
  for (const cknn::QueryUpdate& u : batch.queries) {
    switch (u.kind) {
      case cknn::QueryUpdate::Kind::kInstall:
        referee->SetQuery(u.id, u.pos, u.k);
        break;
      case cknn::QueryUpdate::Kind::kMove:
        referee->SetQuery(u.id, u.pos, 0);
        break;
      case cknn::QueryUpdate::Kind::kTerminate:
        referee->SetQuery(u.id, std::nullopt, 0);
        break;
    }
  }
  for (const cknn::EdgeUpdate& u : batch.edges) {
    referee->SetWeight(u.edge, u.new_weight);
  }
}

void RefereeCheck(const cknn::MonitoringServer& server,
                  const Referee& referee, std::uint64_t seed, int samples,
                  bool perturb, Report* report) {
  std::vector<cknn::QueryId> live = referee.LiveQueries();
  cknn::Rng rng(seed ^ 0x7265666572656531ull);
  rng.Shuffle(&live);
  if (static_cast<int>(live.size()) > samples) live.resize(samples);
  std::sort(live.begin(), live.end());
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < live.size(); ++i) {
    const cknn::QueryId q = live[i];
    ++report->attempted;
    const std::vector<cknn::Neighbor>* result = server.ResultOf(q);
    if (result == nullptr) {
      ++mismatches;
      report->Fail("referee: query " + std::to_string(q) +
                   " has no result on the server");
      continue;
    }
    std::vector<double> actual;
    for (const cknn::Neighbor& n : *result) actual.push_back(n.distance);
    if (perturb && i == 0 && !actual.empty()) actual.back() += 1.0;
    std::string why;
    if (!Referee::Matches(referee.KnnDistances(q), actual, &why)) {
      ++mismatches;
      report->Fail("referee: query " + std::to_string(q) + ": " + why);
    }
  }
  report->Set("referee.checked", static_cast<double>(live.size()), "count");
  report->Set("referee.mismatches", static_cast<double>(mismatches), "count");
}

void KnnSnapshotProbe(const cknn::MonitoringServer& server,
                      const Referee& referee, Report* report) {
  cknn::KnnScratch scratch;
  cknn::ExpandStats stats;
  std::vector<double> micros;
  const std::vector<cknn::QueryId> live = referee.LiveQueries();
  for (cknn::QueryId q : live) {
    const double t0 = WallSeconds();
    std::vector<cknn::Neighbor> result =
        cknn::SnapshotKnn(server.network(), server.objects(),
                          *referee.QueryPosition(q), referee.QueryK(q),
                          &scratch, &stats);
    micros.push_back((WallSeconds() - t0) * 1e6);
    if (result.empty()) report->Fail("knn snapshot: empty result");
  }
  const double n = live.empty() ? 1.0 : static_cast<double>(live.size());
  report->Set("knn_search.snapshot_us", Percentile(micros, 50.0), "us");
  report->Set("knn_search.nodes_settled",
              static_cast<double>(stats.nodes_settled) / n, "count");
  report->Set("knn_search.heap_pushes",
              static_cast<double>(stats.heap_pushes) / n, "count");
  report->Set("knn_search.objects_offered",
              static_cast<double>(stats.objects_offered) / n, "count");
}

void EncodeUpdateFrames(const cknn::UpdateBatch& batch,
                        std::vector<std::uint8_t>* out) {
  using cknn::serve::Message;
  using cknn::serve::OpCode;
  for (const cknn::ObjectUpdate& u : batch.objects) {
    Message m;
    m.id = u.id;
    if (!u.new_pos) {
      m.op = OpCode::kRemoveObject;
    } else {
      m.op = u.old_pos ? OpCode::kMoveObject : OpCode::kAddObject;
      m.edge = u.new_pos->edge;
      m.t = u.new_pos->t;
    }
    cknn::serve::EncodeMessage(m, out);
  }
  for (const cknn::QueryUpdate& u : batch.queries) {
    Message m;
    m.id = u.id;
    m.edge = u.pos.edge;
    m.t = u.pos.t;
    switch (u.kind) {
      case cknn::QueryUpdate::Kind::kInstall:
        m.op = OpCode::kInstallQuery;
        m.k = static_cast<std::uint32_t>(u.k);
        break;
      case cknn::QueryUpdate::Kind::kMove:
        m.op = OpCode::kMoveQuery;
        break;
      case cknn::QueryUpdate::Kind::kTerminate:
        m.op = OpCode::kTerminateQuery;
        break;
    }
    cknn::serve::EncodeMessage(m, out);
  }
  for (const cknn::EdgeUpdate& u : batch.edges) {
    Message m;
    m.op = OpCode::kUpdateWeight;
    m.edge = u.edge;
    m.weight = u.new_weight;
    cknn::serve::EncodeMessage(m, out);
  }
}

void DecodeProbe(const std::vector<std::uint8_t>& stream, Report* report) {
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    cknn::serve::FrameDecoder decoder;
    std::uint64_t frames = 0;
    std::uint64_t bad = 0;
    const double t0 = WallSeconds();
    for (std::size_t at = 0; at < stream.size(); at += kChunk) {
      decoder.Append(stream.data() + at, std::min(kChunk, stream.size() - at));
      while (true) {
        auto next = decoder.Next();
        if (!next.ok() || !next->has_value()) {
          if (!next.ok()) ++bad;
          break;
        }
        auto message = cknn::serve::DecodeMessage((*next)->data(),
                                                  (*next)->size());
        ++frames;
        if (!message.ok()) ++bad;
      }
    }
    const double elapsed = WallSeconds() - t0;
    if (rep == 0) {
      report->attempted += frames;
      for (std::uint64_t i = 0; i < bad; ++i) {
        report->Fail("protocol replay: undecodable frame");
      }
    }
    rates.push_back(static_cast<double>(stream.size()) / 1e6 /
                    std::max(elapsed, 1e-9));
  }
  report->Set("protocol.decode_mb_per_s", Percentile(rates, 50.0), "MB/s");
}

void FrontEndProbe(const cknn::UpdateBatch& batch,
                   cknn::MonitoringServer* server, Referee* referee,
                   Tracer* tracer, Report* report) {
  using Op = cknn::ServeRequest::Op;
  std::vector<cknn::ServeRequest> requests;
  for (const cknn::ObjectUpdate& u : batch.objects) {
    requests.push_back({Op::kMoveObject, u.id, *u.new_pos, 1, 0.0});
  }
  for (const cknn::QueryUpdate& u : batch.queries) {
    requests.push_back({Op::kMoveQuery, u.id, u.pos, 1, 0.0});
  }
  for (const cknn::EdgeUpdate& u : batch.edges) {
    requests.push_back({Op::kUpdateWeight, u.edge, {}, 1, u.new_weight});
  }
  // The reject path re-ticks its window one update at a time, so the
  // window carrying the invalid update is kept small.
  const std::size_t small = std::min<std::size_t>(256, requests.size() / 2);
  const cknn::ServeRequest invalid{Op::kUpdateWeight,
                                   server->network().NumEdges(), {}, 1, 1.0};
  cknn::ServingStats stats;
  {
    cknn::ServingConfig config;
    config.queue_capacity = requests.size() + 1;  // No pump: hold a window.
    cknn::ServingFrontEnd front_end(server, config);
    auto window = [&](std::size_t first, std::size_t last, bool bad) {
      const Tracer::SpanId span = tracer->Begin("front_end.flush");
      for (std::size_t i = first; i < last; ++i) {
        ++report->attempted;
        if (!front_end.TrySubmit(requests[i]).ok()) {
          report->Fail("front end probe: TrySubmit refused");
        }
      }
      if (bad && !front_end.TrySubmit(invalid).ok()) {
        report->Fail("front end probe: TrySubmit refused");
      }
      cknn::Status flushed = front_end.Flush();
      tracer->End(span);
      if (!flushed.ok()) report->Fail("front end probe: " + flushed.ToString());
    };
    window(0, requests.size() - small, false);
    window(requests.size() - small, requests.size(), true);
    stats = front_end.Stats();
  }
  if (stats.rejected_invalid != 1 || stats.applied != requests.size()) {
    report->Fail("front end probe: applied " + std::to_string(stats.applied) +
                 " of " + std::to_string(requests.size()) + ", rejected " +
                 std::to_string(stats.rejected_invalid) + " of 1");
  }
  ApplyToReferee(batch, referee);
  const double ticks =
      static_cast<double>(std::max<std::uint64_t>(stats.ticks, 1));
  report->Set("front_end.ticks", static_cast<double>(stats.ticks), "count");
  report->Set("front_end.updates_per_tick",
              static_cast<double>(stats.applied) / ticks, "count");
  report->Set("front_end.queue_depth_max",
              static_cast<double>(stats.max_queue_depth), "count");
  report->Set("front_end.rejected_invalid",
              static_cast<double>(stats.rejected_invalid), "count");
  report->Set("front_end.rejected_full",
              static_cast<double>(stats.rejected_queue_full), "count");
}

}  // namespace perfbench
