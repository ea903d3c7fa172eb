// The open-loop serving workload, serve_mixed.
//
// One sender thread writes pre-encoded cknn_serve frames into one end of a
// socketpair on an evenly spaced schedule; the other end is served by
// serve::ServeConnection into a ServingFrontEnd (pump started) over an
// IMA server with 2 shards at pipeline depth 2. One reader thread consumes
// the in-order responses. The stream is Table-2 random-walk object, query
// and edge updates, plus kRead frames at a fixed cadence and about one
// invalid weight update (an edge id past the last edge) per second of
// schedule, placed by the seed.

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "probes.h"
#include "referee.h"
#include "src/serve/front_end.h"
#include "src/serve/protocol.h"
#include "src/serve/serve_loop.h"
#include "src/util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Offered load, frames per second (updates, reads and invalid updates
/// together): half the rate at which the backlog starts to grow
/// (~120k frames/s on 4 cores; README.md has the measurement). To
/// recalibrate, edit this constant.
constexpr double kOfferedRate = 60000.0;
/// kRead frames per second of schedule.
constexpr double kReadsPerSecond = 50.0;
/// Latency limit of the workload on serve_visible_tail_ms. A run whose
/// client lag tail exceeds a tenth of it measured the load generator, not
/// the server, and is rejected as invalid instead of recorded.
constexpr double kLatencyLimitMs = 100.0;
constexpr double kMaxLagShare = 0.1;
/// Exit code of an invalid run (run.py retries it).
constexpr int kInvalidRunExit = 3;

using cknn::serve::Message;
using cknn::serve::OpCode;

enum class FrameKind { kUpdate, kInvalid, kRead };

struct Frame {
  FrameKind kind = FrameKind::kUpdate;
  Message message;
};

struct Spec {
  cknn::NetworkGenConfig network;
  cknn::WorkloadConfig workload;
  ServerShape shape{cknn::Algorithm::kIma, 2, 2};
  double rate = kOfferedRate;
  int referee_samples = 32;
  int probe_windows = 16;
};

Spec MakeSpec(const Options& options) {
  Spec spec;
  spec.network.target_edges = 10000;
  spec.network.seed = kNetworkSeed;
  spec.workload.seed = options.seed * 0x9E3779B97F4A7C15ull + 3;
  spec.workload.num_objects = 100000;
  spec.workload.num_queries = 5000;
  spec.workload.k = 10;
  if (options.scale == "tiny") {
    spec.network.target_edges = 400;
    spec.workload.num_objects = 2000;
    spec.workload.num_queries = 60;
    spec.rate = 4000.0;
    spec.referee_samples = 8;
    spec.probe_windows = 4;
  }
  return spec;
}

Frame UpdateFrame(OpCode op, std::uint64_t id, std::uint64_t edge, double t,
                  double weight) {
  Frame f;
  f.message.op = op;
  f.message.id = id;
  f.message.edge = edge;
  f.message.t = t;
  f.message.weight = weight;
  return f;
}

/// Appends the frames of one workload step (objects, queries, edges).
void AppendStep(const cknn::UpdateBatch& step, std::vector<Frame>* out) {
  for (const cknn::ObjectUpdate& u : step.objects) {
    out->push_back(UpdateFrame(OpCode::kMoveObject, u.id, u.new_pos->edge,
                               u.new_pos->t, 0.0));
  }
  for (const cknn::QueryUpdate& u : step.queries) {
    out->push_back(
        UpdateFrame(OpCode::kMoveQuery, u.id, u.pos.edge, u.pos.t, 0.0));
  }
  for (const cknn::EdgeUpdate& u : step.edges) {
    out->push_back(
        UpdateFrame(OpCode::kUpdateWeight, 0, u.edge, 0.0, u.new_weight));
  }
}

/// The whole schedule: whole workload steps of updates (at least
/// rate x seconds frames in all), kRead frames at a fixed cadence and one
/// invalid weight update at a seeded slot of every second.
std::vector<Frame> BuildSchedule(const Spec& spec, const Options& options,
                                 std::size_t num_edges,
                                 cknn::Workload* workload,
                                 std::vector<double>* gen_ms,
                                 Report* report) {
  const std::size_t reads =
      static_cast<std::size_t>(kReadsPerSecond * options.seconds);
  const std::size_t invalid = static_cast<std::size_t>(options.seconds);
  const std::size_t wanted =
      static_cast<std::size_t>(spec.rate * options.seconds);
  std::vector<Frame> updates;
  while (updates.size() + reads + invalid < wanted) {
    const double g0 = WallSeconds();
    const cknn::UpdateBatch step = workload->Step();
    gen_ms->push_back((WallSeconds() - g0) * 1e3);
    report->input_digest = DigestBatch(report->input_digest, step);
    AppendStep(step, &updates);
  }
  const std::size_t total = updates.size() + reads + invalid;
  std::vector<FrameKind> kinds(total, FrameKind::kUpdate);
  const std::size_t read_every = total / std::max<std::size_t>(reads, 1);
  for (std::size_t r = 0; r < reads; ++r) {
    kinds[r * read_every + read_every - 1] = FrameKind::kRead;
  }
  cknn::Rng rng(options.seed ^ 0x696e76616c6964ull);
  const std::size_t per_second = total / std::max<std::size_t>(invalid, 1);
  for (std::size_t s = 0; s < invalid; ++s) {
    std::size_t at = s * per_second + rng.NextIndex(per_second);
    while (kinds[at] != FrameKind::kUpdate) at = (at + 1) % total;
    kinds[at] = FrameKind::kInvalid;
  }
  std::vector<Frame> frames;
  frames.reserve(total);
  std::size_t next_update = 0;
  for (FrameKind kind : kinds) {
    switch (kind) {
      case FrameKind::kUpdate:
        frames.push_back(updates[next_update++]);
        break;
      case FrameKind::kRead: {
        Frame f;
        f.kind = FrameKind::kRead;
        f.message.op = OpCode::kRead;
        f.message.id = rng.NextIndex(spec.workload.num_queries);
        frames.push_back(f);
        break;
      }
      case FrameKind::kInvalid: {
        Frame f = UpdateFrame(OpCode::kUpdateWeight, 0,
                              num_edges + rng.NextIndex(1000), 0.0, 1.0);
        f.kind = FrameKind::kInvalid;
        frames.push_back(f);
        break;
      }
    }
  }
  return frames;
}

/// Mirrors one valid update frame into the referee.
void ApplyFrame(const Message& m, Referee* referee) {
  switch (m.op) {
    case OpCode::kMoveObject:
      referee->SetObject(static_cast<cknn::ObjectId>(m.id),
                         cknn::NetworkPoint{static_cast<cknn::EdgeId>(m.edge),
                                            m.t});
      break;
    case OpCode::kMoveQuery:
      referee->SetQuery(static_cast<cknn::QueryId>(m.id),
                        cknn::NetworkPoint{static_cast<cknn::EdgeId>(m.edge),
                                           m.t},
                        0);
      break;
    case OpCode::kUpdateWeight:
      referee->SetWeight(static_cast<cknn::EdgeId>(m.edge), m.weight);
      break;
    default:
      break;
  }
}

bool WriteAll(int fd, const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// What the reader thread saw.
struct ReaderResult {
  std::vector<double> recv;  ///< Response time per frame (WallSeconds).
  std::size_t responses = 0;
  std::uint64_t queue_full = 0;
  std::uint64_t update_errors = 0;
  std::uint64_t read_errors = 0;
  std::uint64_t bad_frames = 0;
};

void ReadResponses(int fd, const std::vector<Frame>& frames, int k,
                   ReaderResult* out) {
  out->recv.assign(frames.size(), 0.0);
  cknn::serve::FrameDecoder decoder;
  std::vector<std::uint8_t> chunk(std::size_t{1} << 16);
  bool framing_lost = false;  // Then only drain, so the server never blocks.
  while (true) {
    const ssize_t n = ::read(fd, chunk.data(), chunk.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    if (framing_lost) continue;
    decoder.Append(chunk.data(), static_cast<std::size_t>(n));
    const double now = WallSeconds();
    while (out->responses < frames.size()) {
      auto next = decoder.Next();
      if (!next.ok()) {
        ++out->bad_frames;
        framing_lost = true;
        break;
      }
      if (!next->has_value()) break;
      const std::size_t i = out->responses++;
      out->recv[i] = now;
      auto response =
          cknn::serve::DecodeResponse((*next)->data(), (*next)->size());
      if (!response.ok()) {
        ++out->bad_frames;
        continue;
      }
      if (frames[i].kind == FrameKind::kRead) {
        if (response->kind != cknn::serve::ResponseKind::kRead ||
            response->code != cknn::StatusCode::kOk ||
            static_cast<int>(response->neighbors.size()) != k) {
          ++out->read_errors;
        }
      } else if (response->code == cknn::StatusCode::kResourceExhausted) {
        ++out->queue_full;
      } else if (response->code != cknn::StatusCode::kOk) {
        ++out->update_errors;
      }
    }
  }
}

/// Traced run only: feeds `spec.probe_windows` more windows of `window`
/// updates straight into the drained server with TimedSplit, so the server
/// and sharding layers are measured at this workload's window size.
void ServerLayerProbe(const Spec& spec, std::size_t window, Fixture* fx,
                      Referee* referee, Tracer* tracer, Report* report) {
  SplitSamples split;
  cknn::UpdateBatch pending;
  int done = 0;
  auto flush = [&] {
    ++report->attempted;
    TimedSplit(pending, done, fx->server.get(), tracer, &split, report);
    ApplyToReferee(pending, referee);
    pending = cknn::UpdateBatch();
    ++done;
  };
  // Window boundaries cut through steps, as the front end's do; a chunk of
  // one step's stream keeps its entity order.
  while (done < spec.probe_windows) {
    cknn::UpdateBatch step = fx->workload->Step();
    std::size_t oi = 0, qi = 0, ei = 0;
    while (done < spec.probe_windows &&
           oi + qi + ei < BatchSize(step)) {
      if (oi < step.objects.size()) {
        pending.objects.push_back(step.objects[oi++]);
      } else if (qi < step.queries.size()) {
        pending.queries.push_back(step.queries[qi++]);
      } else {
        pending.edges.push_back(step.edges[ei++]);
      }
      if (BatchSize(pending) >= window) flush();
    }
  }
  ReportSplit(split, *fx->server, report);
}

/// What serving the schedule measured.
struct ServeResult {
  cknn::ServingStats stats;
  std::vector<double> ack_ms;   ///< Due -> response, update frames.
  std::vector<double> read_ms;  ///< Due -> response, kRead frames.
  std::vector<double> lag_ms;   ///< Due -> sent, every frame.
  std::uint64_t queue_full = 0;
  std::uint64_t errors = 0;  ///< Update/read errors, bad or missing frames.
  double cpu_s = 0.0;
};

/// Serves the whole schedule over one socketpair connection and one front
/// end, on the evenly spaced schedule, then shuts the front end down
/// (folding and draining everything it accepted).
ServeResult ServeSchedule(const Spec& spec, const std::vector<Frame>& frames,
                          const std::vector<std::uint8_t>& bytes,
                          const std::vector<std::size_t>& offset,
                          cknn::MonitoringServer* server, Tracer* tracer) {
  ServeResult result;
  cknn::ServingConfig config;
  config.latency_reservoir_capacity = frames.size() + 1;  // Exact.
  cknn::ServingFrontEnd front_end(server, config);
  front_end.Start();
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    front_end.Shutdown();
    ++result.errors;
    return result;
  }
  for (int fd : fds) {
    const int size = 4 << 20;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &size, sizeof(size));
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &size, sizeof(size));
  }
  cknn::serve::ServeLoopResult loop_result;
  std::thread serve_thread([&] {
    loop_result = cknn::serve::ServeConnection(fds[0], &front_end);
  });
  ReaderResult reader;
  std::thread reader_thread([&] {
    ReadResponses(fds[1], frames, spec.workload.k, &reader);
  });
  std::atomic<bool> sampling{tracer->enabled()};
  std::thread sampler;
  if (tracer->enabled()) {
    sampler = std::thread([&] {
      // Fixed-period Stats() samples, as an operator would poll them.
      while (sampling.load()) {
        const double s0 = WallSeconds();
        const cknn::ServingStats s = front_end.Stats();
        tracer->Record("front_end.stats", s0, WallSeconds(), Tracer::kNoSpan,
                       s.ticks, 3);
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
  }

  // The sender, on this thread.
  const double cpu0 = CpuSeconds();
  const double start = WallSeconds() + 0.01;
  auto due = [&](std::size_t i) {
    return start + static_cast<double>(i) / spec.rate;
  };
  result.lag_ms.assign(frames.size(), 0.0);
  bool send_ok = true;
  for (std::size_t i = 0; i < frames.size() && send_ok;) {
    const double now = WallSeconds();
    if (now < due(i)) {
      std::this_thread::sleep_for(std::chrono::duration<double>(due(i) - now));
      continue;
    }
    std::size_t j = i;
    while (j < frames.size() && due(j) <= now && j - i < 4096) ++j;
    const Tracer::SpanId span =
        tracer->Begin("client.send", Tracer::kNoSpan, i, 1);
    send_ok = WriteAll(fds[1], bytes.data() + offset[i], offset[j] - offset[i]);
    tracer->End(span);
    for (std::size_t f = i; f < j; ++f) result.lag_ms[f] = (now - due(f)) * 1e3;
    i = j;
  }
  // EOF to the serve loop; once it has answered everything and returned,
  // EOF to the reader, which then ends even if responses went missing.
  ::shutdown(fds[1], SHUT_WR);
  serve_thread.join();
  ::shutdown(fds[0], SHUT_WR);
  reader_thread.join();
  front_end.Shutdown();
  result.cpu_s = CpuSeconds() - cpu0;
  sampling.store(false);
  if (sampler.joinable()) sampler.join();
  ::close(fds[0]);
  ::close(fds[1]);

  result.stats = front_end.Stats();
  result.queue_full = reader.queue_full;
  result.errors = reader.update_errors + reader.read_errors +
                  reader.bad_frames + (send_ok ? 0 : 1) +
                  (loop_result.status.ok() ? 0 : 1) +
                  (frames.size() - reader.responses);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (reader.recv[i] == 0.0) continue;
    const double ms = (reader.recv[i] - due(i)) * 1e3;
    if (frames[i].kind == FrameKind::kRead) {
      result.read_ms.push_back(ms);
      tracer->Record("client.read", due(i), reader.recv[i], Tracer::kNoSpan,
                     i, 2);
    } else {
      result.ack_ms.push_back(ms);
    }
  }
  return result;
}

}  // namespace

void RunServeMixed(const Options& options, Tracer* tracer, Report* report) {
  const Spec spec = MakeSpec(options);
  const int setups = options.scale == "tiny" ? 1 : 3;
  std::vector<double> setup_times;
  Fixture fx;
  for (int r = 0; r < setups; ++r) {
    fx = Fixture();  // Free the previous round before building anew.
    fx = BuildFixture(spec.network, spec.workload, spec.shape, report);
    setup_times.push_back(fx.setup_s);
  }
  report->Set("setup_s", Percentile(setup_times, 50.0), "s");
  report->input_digest = DigestBatch(report->input_digest, fx.initial);
  cknn::MonitoringServer& server = *fx.server;
  Referee referee(spec.network);
  ApplyToReferee(fx.initial, &referee);
  fx.initial = cknn::UpdateBatch();

  // ---- Pre-generate and pre-encode the schedule.
  std::vector<double> gen_ms;
  const std::vector<Frame> frames =
      BuildSchedule(spec, options, server.network().NumEdges(),
                    fx.workload.get(), &gen_ms, report);
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> offset;
  offset.reserve(frames.size() + 1);
  std::uint64_t valid = 0, invalid = 0, reads = 0;
  for (const Frame& f : frames) {
    offset.push_back(bytes.size());
    cknn::serve::EncodeMessage(f.message, &bytes);
    valid += f.kind == FrameKind::kUpdate;
    invalid += f.kind == FrameKind::kInvalid;
    reads += f.kind == FrameKind::kRead;
  }
  offset.push_back(bytes.size());
  std::printf("schedule: %zu frames (%llu updates, %llu reads, %llu invalid) "
              "at %.0f frames/s\n",
              frames.size(), static_cast<unsigned long long>(valid),
              static_cast<unsigned long long>(reads),
              static_cast<unsigned long long>(invalid), spec.rate);

  // ---- Serve the schedule.
  const EngineCounters counters_before = ReadEngineCounters(server);
  const ServeResult served =
      ServeSchedule(spec, frames, bytes, offset, &server, tracer);
  const cknn::ServingStats& stats = served.stats;
  for (std::uint64_t i = 0; i < served.queue_full; ++i) {
    report->Fail("update answered with a full queue");
  }
  for (std::uint64_t i = 0; i < served.errors; ++i) {
    report->Fail("serve error: bad, missing or failed response");
  }

  // ---- Outcomes.
  report->attempted += frames.size();
  if (stats.rejected_invalid != invalid) {
    report->Fail("rejected_invalid " + std::to_string(stats.rejected_invalid) +
                 " != injected invalid " + std::to_string(invalid));
  }
  if (stats.applied != valid) {
    report->Fail("applied " + std::to_string(stats.applied) +
                 " != accepted valid " + std::to_string(valid));
  }

  // ---- End-to-end metrics.
  report->Set("cpu_us_per_update",
              stats.applied == 0 ? 0.0
                                 : served.cpu_s /
                                       static_cast<double>(stats.applied) *
                                       1e6,
              "us");
  cknn::Result<std::size_t> mem = server.TryMonitorMemoryBytes();
  if (!mem.ok()) {
    report->Fail("TryMonitorMemoryBytes: " + mem.status().ToString());
  }
  report->Set("monitor_mb", mem.ok() ? static_cast<double>(*mem) / 1e6 : 0.0,
              "MB");
  ReportLatency("serve_ack", served.ack_ms, report);
  report->Set("serve_visible_p50_ms", stats.latency_p50_sec * 1e3, "ms");
  report->Set("serve_visible_tail_ms", stats.latency_p99_sec * 1e3, "ms");
  std::printf("tail serve_visible_tail_ms is p99 over %llu samples (p95 "
              "%.4g, max %.4g ms)\n",
              static_cast<unsigned long long>(stats.latency_samples),
              stats.latency_p95_sec * 1e3, stats.latency_max_sec * 1e3);
  ReportLatency("serve_read", served.read_ms, report);
  std::printf("%llu engine ticks, queue depth max %zu\n",
              static_cast<unsigned long long>(stats.ticks),
              stats.max_queue_depth);

  // ---- Load-generator validity.
  const Tail lag_tail = TailOf(served.lag_ms);
  std::printf("client lag p50 %.4f ms, p%g %.4f ms (limit %.2f ms)\n",
              Percentile(served.lag_ms, 50.0), lag_tail.pct, lag_tail.value,
              kMaxLagShare * kLatencyLimitMs);
  if (lag_tail.value > kMaxLagShare * kLatencyLimitMs) {
    std::fprintf(stderr,
                 "perfbench: INVALID RUN: client lag tail %.3f ms exceeds "
                 "%.2f ms; the load generator fell behind its schedule\n",
                 lag_tail.value, kMaxLagShare * kLatencyLimitMs);
    std::fflush(stdout);
    std::_Exit(kInvalidRunExit);
  }

  for (const Frame& f : frames) {
    if (f.kind == FrameKind::kUpdate) ApplyFrame(f.message, &referee);
  }

  // ---- Per-layer metrics (traced run).
  if (options.trace) {
    const double tick_count =
        static_cast<double>(std::max<std::uint64_t>(stats.ticks, 1));
    ReportEngineCounters(counters_before, ReadEngineCounters(server),
                         tick_count, report);
    report->Set("gen.step_ms", Percentile(gen_ms, 50.0), "ms");
    const double per_tick = static_cast<double>(stats.applied) / tick_count;
    ServerLayerProbe(spec, static_cast<std::size_t>(std::max(per_tick, 1.0)),
                     &fx, &referee, tracer, report);
    report->Set("front_end.ticks", static_cast<double>(stats.ticks), "count");
    report->Set("front_end.updates_per_tick", per_tick, "count");
    report->Set("front_end.queue_depth_max",
                static_cast<double>(stats.max_queue_depth), "count");
    report->Set("front_end.rejected_invalid",
                static_cast<double>(stats.rejected_invalid), "count");
    report->Set("front_end.rejected_full",
                static_cast<double>(stats.rejected_queue_full), "count");
    DecodeProbe(bytes, report);
    report->Set("client.lag_p50_ms", Percentile(served.lag_ms, 50.0), "ms");
    report->Set("client.lag_tail_ms", lag_tail.value, "ms");
  }

  // ---- Referee: the open-loop updates, plus the probe windows when traced.
  RefereeCheck(server, referee, options.seed, spec.referee_samples,
               options.perturb, report);
  if (options.trace) KnnSnapshotProbe(server, referee, report);
}

}  // namespace perfbench
