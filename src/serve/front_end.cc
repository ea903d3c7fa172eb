#include "src/serve/front_end.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "src/core/object_table.h"
#include "src/serve/protocol.h"
#include "src/util/macros.h"

namespace cknn {

namespace {

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

}  // namespace

ServingFrontEnd::ServingFrontEnd(MonitoringServer* server,
                                 ServingConfig config)
    : server_(server),
      config_(config),
      latency_(config.latency_reservoir_capacity) {
  // cknn-lint: allow(abort) construction-time precondition of the host process, before any client connects
  CKNN_CHECK(server_ != nullptr);
  if (config_.queue_capacity == 0) config_.queue_capacity = 1;
}

ServingFrontEnd::~ServingFrontEnd() { Shutdown(); }

Status ServingFrontEnd::TrySubmit(const ServeRequest& request) {
  {
    MutexLock lock(queue_mu_);
    if (shutdown_) {
      return Status::FailedPrecondition("serving front end is shut down");
    }
    if (queue_.size() >= config_.queue_capacity) {
      ++rejected_queue_full_;
      return Status::ResourceExhausted(
          "submission queue full (capacity " +
          std::to_string(config_.queue_capacity) + ")");
    }
    queue_.push_back(Entry{request, Clock::now()});
    ++accepted_;
    max_queue_depth_ = std::max(max_queue_depth_, queue_.size());
  }
  not_empty_.NotifyOne();
  return Status::OK();
}

Status ServingFrontEnd::Submit(const ServeRequest& request) {
  {
    MutexLock lock(queue_mu_);
    while (!shutdown_ && queue_.size() >= config_.queue_capacity) {
      not_full_.Wait(queue_mu_);
    }
    if (shutdown_) {
      return Status::FailedPrecondition("serving front end is shut down");
    }
    queue_.push_back(Entry{request, Clock::now()});
    ++accepted_;
    max_queue_depth_ = std::max(max_queue_depth_, queue_.size());
  }
  not_empty_.NotifyOne();
  return Status::OK();
}

void ServingFrontEnd::Start() {
  MutexLock lifecycle(lifecycle_mu_);
  // cknn-lint: allow(abort) lifecycle precondition driven by the embedding main, not by client traffic
  CKNN_CHECK(!pump_.joinable());
  {
    MutexLock lock(queue_mu_);
    // cknn-lint: allow(abort) lifecycle precondition driven by the embedding main, not by client traffic
    CKNN_CHECK(!shutdown_);
  }
  pump_ = std::thread([this] { PumpLoop(); });
}

void ServingFrontEnd::PumpLoop() {
  while (true) {
    std::vector<Entry> slice;
    {
      MutexLock lock(queue_mu_);
      while (!shutdown_ && queue_.empty()) not_empty_.Wait(queue_mu_);
      if (queue_.empty()) break;  // Shutdown with a drained queue.
      slice = TakeSliceLocked();
      pump_busy_ = true;
    }
    not_full_.NotifyAll();
    ProcessSlice(std::move(slice));
    {
      MutexLock lock(queue_mu_);
      pump_busy_ = false;
    }
    drained_.NotifyAll();
  }
  drained_.NotifyAll();
}

std::vector<ServingFrontEnd::Entry> ServingFrontEnd::TakeSliceLocked() {
  const std::size_t limit =
      config_.max_batch_requests == 0
          ? queue_.size()
          : std::min(queue_.size(), config_.max_batch_requests);
  std::vector<Entry> slice;
  slice.reserve(limit);
  for (std::size_t i = 0; i < limit; ++i) {
    slice.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  return slice;
}

Status ServingFrontEnd::Flush() {
  MutexLock lifecycle(lifecycle_mu_);
  while (true) {
    std::vector<Entry> slice;
    {
      MutexLock lock(queue_mu_);
      if (pump_.joinable()) {
        // With a pump the barrier is: every pre-Flush request has been
        // taken AND processed (pump idle). New requests racing past the
        // barrier are the next window's problem.
        while (!queue_.empty() || pump_busy_) drained_.Wait(queue_mu_);
        break;
      }
      if (queue_.empty()) break;
      slice = TakeSliceLocked();
    }
    not_full_.NotifyAll();
    ProcessSlice(std::move(slice));
  }
  MutexLock lock(engine_mu_);
  Status drained = DrainEngineLocked();
  return drained;
}

void ServingFrontEnd::Shutdown() {
  MutexLock lifecycle(lifecycle_mu_);
  {
    MutexLock lock(queue_mu_);
    shutdown_ = true;
  }
  not_empty_.NotifyAll();
  not_full_.NotifyAll();
  if (pump_.joinable()) pump_.join();  // Drains the queue before exiting.
  // No pump (or requests the pump never saw): drain synchronously so
  // every accepted request still reaches the engine.
  while (true) {
    std::vector<Entry> slice;
    {
      MutexLock lock(queue_mu_);
      if (queue_.empty()) break;
      slice = TakeSliceLocked();
    }
    ProcessSlice(std::move(slice));
  }
  MutexLock lock(engine_mu_);
  CKNN_IGNORE_STATUS(DrainEngineLocked(),
                     "shutdown is void by contract; DrainEngineLocked "
                     "already latched the status into last_error_");
}

Result<std::vector<Neighbor>> ServingFrontEnd::ReadResult(QueryId id) {
  MutexLock lock(engine_mu_);
  Status drained = DrainEngineLocked();
  if (!drained.ok()) return drained;
  const std::vector<Neighbor>* neighbors = nullptr;
  Status read = server_->TryResultOf(id, &neighbors);
  if (!read.ok()) return read;
  if (neighbors == nullptr) {
    return Status::NotFound("unknown query " + std::to_string(id));
  }
  return *neighbors;
}

std::size_t ServingFrontEnd::QueueDepth() const {
  MutexLock lock(queue_mu_);
  return queue_.size();
}

ServingStats ServingFrontEnd::Stats() const {
  ServingStats stats;
  {
    MutexLock lock(queue_mu_);
    stats.accepted = accepted_;
    stats.rejected_queue_full = rejected_queue_full_;
    stats.max_queue_depth = max_queue_depth_;
  }
  {
    MutexLock lock(engine_mu_);
    stats.rejected_invalid = rejected_invalid_;
    stats.applied = applied_;
    stats.ticks = ticks_;
    stats.latency_samples = latency_.count();
    stats.latency_p50_sec = latency_.Percentile(50.0);
    stats.latency_p95_sec = latency_.Percentile(95.0);
    stats.latency_p99_sec = latency_.Percentile(99.0);
    stats.latency_max_sec = latency_.max();
  }
  return stats;
}

Status ServingFrontEnd::last_error() const {
  MutexLock lock(engine_mu_);
  return last_error_;
}

void ServingFrontEnd::ProcessSlice(std::vector<Entry> slice) {
  MutexLock lock(engine_mu_);
  std::vector<ServeRequest> requests;
  requests.reserve(slice.size());
  for (const Entry& entry : slice) requests.push_back(entry.request);
  BatchBuild built = BuildBatch(requests, *server_);
  rejected_invalid_ += built.rejected.size();
  if (!built.rejected.empty()) last_error_ = built.rejected.back().status;
  const std::size_t updates = built.batch.objects.size() +
                              built.batch.queries.size() +
                              built.batch.edges.size();
  if (updates > 0) {
    // The build admitted each update under the server's own rules, so
    // only a batch-level limit (stream length) can still refuse it.
    Status submitted = server_->SubmitBatch(built.batch);
    ++ticks_;
    if (submitted.ok()) {
      applied_ += updates;
    } else {
      last_error_ = submitted;
      rejected_invalid_ += updates;
    }
  }
  // Latency retirement under the depth-2 pipeline: whatever was pending
  // completed at the apply barrier inside SubmitBatch; this slice's tick
  // is visible once the *next* barrier (or a drain) passes.
  const Clock::time_point now = Clock::now();
  RetirePendingLocked(now);
  if (server_->InFlight()) {
    pending_retire_.reserve(pending_retire_.size() + slice.size());
    for (const Entry& entry : slice) {
      pending_retire_.push_back(entry.enqueued);
    }
  } else {
    for (const Entry& entry : slice) {
      latency_.Add(Seconds(now - entry.enqueued));
    }
  }
}

Status ServingFrontEnd::DrainEngineLocked() {
  Status status = server_->Drain();
  RetirePendingLocked(Clock::now());
  if (!status.ok()) last_error_ = status;
  return status;
}

void ServingFrontEnd::RetirePendingLocked(Clock::time_point now) {
  for (const Clock::time_point& enqueued : pending_retire_) {
    latency_.Add(Seconds(now - enqueued));
  }
  pending_retire_.clear();
}

ServingFrontEnd::BatchBuild ServingFrontEnd::BuildBatch(
    const std::vector<ServeRequest>& requests,
    const MonitoringServer& server) {
  using Op = ServeRequest::Op;
  // Split per stream (request indices, arrival order), then stable-sort
  // by entity id: per-entity order (one producer's FIFO) is preserved,
  // producer interleaving is canonicalized away.
  std::vector<std::size_t> objects, queries, edges;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    switch (requests[i].op) {
      case Op::kAddObject:
      case Op::kMoveObject:
      case Op::kRemoveObject:
        objects.push_back(i);
        break;
      case Op::kInstallQuery:
      case Op::kMoveQuery:
      case Op::kTerminateQuery:
        queries.push_back(i);
        break;
      case Op::kUpdateWeight:
        edges.push_back(i);
        break;
    }
  }
  auto by_id = [&](std::size_t a, std::size_t b) {
    return requests[a].id < requests[b].id;
  };
  std::stable_sort(objects.begin(), objects.end(), by_id);
  std::stable_sort(queries.begin(), queries.end(), by_id);
  std::stable_sort(edges.begin(), edges.end(), by_id);

  BatchBuild out;
  const std::size_t num_edges = server.network().NumEdges();
  // Walks one sorted stream: every entity's chain starts from
  // `seed(id)` and each request goes through `admit`, which emits the
  // update and advances the state when the server's rule admits it.
  auto walk = [&](const std::vector<std::size_t>& stream, const char* what,
                  auto seed, auto admit) {
    decltype(seed(0)) state{};
    for (std::size_t n = 0; n < stream.size(); ++n) {
      const ServeRequest& r = requests[stream[n]];
      Status status = serve::CheckWireId(r.id, what);
      if (status.ok()) {
        const auto id = static_cast<std::uint32_t>(r.id);
        if (n == 0 || requests[stream[n - 1]].id != r.id) state = seed(id);
        status = admit(r, id, &state);
      }
      if (!status.ok()) {
        out.rejected.push_back(Rejection{stream[n], std::move(status)});
      }
    }
  };

  // Objects: the request carries no old position, so the running
  // position supplies it.
  walk(
      objects, "object id",
      [&](ObjectId id) -> std::optional<NetworkPoint> {
        const NetworkPoint* pos = server.objects().Find(id);
        if (pos == nullptr) return std::nullopt;
        return *pos;
      },
      [&](const ServeRequest& r, ObjectId id,
          std::optional<NetworkPoint>* pos) {
        ObjectUpdate u{id, std::nullopt, r.pos};
        if (r.op != Op::kAddObject) {
          if (!pos->has_value()) {
            return Status::NotFound("update for unknown object");
          }
          u.old_pos = *pos;
          if (r.op == Op::kRemoveObject) u.new_pos = std::nullopt;
        }
        CKNN_RETURN_NOT_OK(CheckObjectUpdate(u, *pos, num_edges));
        out.batch.objects.push_back(u);
        *pos = u.new_pos;
        return Status::OK();
      });

  // Queries: the running registration starts from the caller-side
  // registry (safe to consult mid-flight); terminate-then-reinstall
  // chains are legal and fold downstream.
  walk(
      queries, "query id",
      [&](QueryId id) { return server.shards().IsRegistered(id); },
      [&](const ServeRequest& r, QueryId id, bool* registered) {
        QueryUpdate u{id, QueryUpdate::Kind::kInstall, r.pos, r.k};
        if (r.op == Op::kMoveQuery) {
          u = QueryUpdate{id, QueryUpdate::Kind::kMove, r.pos, 1};
        } else if (r.op == Op::kTerminateQuery) {
          u = QueryUpdate{id, QueryUpdate::Kind::kTerminate, NetworkPoint{},
                          1};
        }
        CKNN_RETURN_NOT_OK(CheckQueryUpdate(u, *registered, num_edges));
        out.batch.queries.push_back(u);
        *registered = u.kind != QueryUpdate::Kind::kTerminate;
        return Status::OK();
      });

  // Edges: no running state.
  walk(
      edges, "edge", [](EdgeId) { return false; },
      [&](const ServeRequest& r, EdgeId edge, bool*) {
        const EdgeUpdate u{edge, r.weight};
        CKNN_RETURN_NOT_OK(CheckEdgeUpdate(u, num_edges));
        out.batch.edges.push_back(u);
        return Status::OK();
      });

  std::sort(out.rejected.begin(), out.rejected.end(),
            [](const Rejection& a, const Rejection& b) {
              return a.index < b.index;
            });
  return out;
}

}  // namespace cknn
