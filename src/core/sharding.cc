#include "src/core/sharding.h"

#include <functional>
#include <utility>

#include "src/core/gma.h"
#include "src/core/ima.h"
#include "src/core/ovh.h"
#include "src/util/macros.h"

namespace cknn {

namespace {

std::unique_ptr<Monitor> MakeMonitor(Algorithm algorithm, RoadNetwork* net,
                                     const ObjectTable* objects) {
  switch (algorithm) {
    case Algorithm::kIma:
      return std::make_unique<Ima>(net, objects);
    case Algorithm::kGma:
      return std::make_unique<Gma>(net, objects);
    case Algorithm::kOvh:
      return std::make_unique<Ovh>(net, objects);
  }
  CKNN_CHECK(false);
  return nullptr;
}

}  // namespace

ShardSet::ShardSet(RoadNetwork* primary_network, const ObjectTable* objects,
                   Algorithm algorithm, int num_shards)
    : pool_(num_shards) {
  CKNN_CHECK(primary_network != nullptr);
  CKNN_CHECK(objects != nullptr);
  CKNN_CHECK(num_shards >= 1);
  // Shard 0 monitors the primary network in place and maintenance runs on
  // pool workers; warm up the lazily built adjacency index while the
  // network is still touched by this thread alone.
  primary_network->BuildAdjacencyIndex();
  shards_.resize(static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    Shard& shard = shards_[static_cast<std::size_t>(s)];
    RoadNetwork* net = primary_network;
    if (s > 0) {
      // A shared-topology view, not a clone: the immutable topology is
      // referenced, only the dynamic weights are per-shard — 8 bytes/edge
      // instead of O(network) per shard.
      shard.network =
          std::make_unique<RoadNetwork>(primary_network->SharedView());
      net = shard.network.get();
    }
    shard.monitor = MakeMonitor(algorithm, net, objects);
  }
}

ShardSet::~ShardSet() {
  owner_role_.Assert();
  if (in_flight_) WaitProcessTimestamp();
}

void ShardSet::Partition(UpdateBatch aggregated) {
  // The broadcast halves are copied per shard because Monitor consumes one
  // self-contained UpdateBatch. The copies are flat memcpy-sized records
  // into vectors that keep their capacity across ticks, and every shard
  // already does O(batch) routing work on them — so this adds a constant
  // factor to a term the maintenance phase dominates. Revisit (share the
  // broadcast vectors through the Monitor interface) if profiles disagree.
  Shard& last = shards_.back();
  for (Shard& shard : shards_) {
    if (&shard != &last) {
      shard.sub.objects = aggregated.objects;  // Broadcast.
      shard.sub.edges = aggregated.edges;      // Broadcast.
    }
    shard.sub.queries.clear();
  }
  if (shards_.size() == 1) {
    last.sub.queries = std::move(aggregated.queries);
  } else {
    // Query updates go to the owning shard only; relative order (including
    // terminate-then-reinstall pairs) is preserved per shard.
    for (const QueryUpdate& u : aggregated.queries) {
      shards_[static_cast<std::size_t>(ShardOf(u.id))].sub.queries.push_back(
          u);
    }
  }
  last.sub.objects = std::move(aggregated.objects);
  last.sub.edges = std::move(aggregated.edges);
}

void ShardSet::UpdateRegistry(const UpdateBatch& aggregated) {
  for (const QueryUpdate& u : aggregated.queries) {
    switch (u.kind) {
      case QueryUpdate::Kind::kInstall:
        registered_.Insert(RegisteredQuery{u.id, true});
        break;
      case QueryUpdate::Kind::kTerminate: {
        RegisteredQuery* slot = registered_.Find(u.id);
        CKNN_CHECK(slot != nullptr);
        registered_.Erase(slot);
        break;
      }
      case QueryUpdate::Kind::kMove:
        break;
    }
  }
}

void ShardSet::BeginProcessTimestamp(UpdateBatch aggregated) {
  owner_role_.Assert();
  CKNN_CHECK(!in_flight_);
  UpdateRegistry(aggregated);
  Partition(std::move(aggregated));
  tasks_.clear();
  tasks_.reserve(shards_.size());
  for (Shard& shard : shards_) {
    tasks_.push_back([&shard] { shard.monitor->ProcessTimestamp(shard.sub); });
  }
  in_flight_ = true;
  pool_.Begin(tasks_);
}

void ShardSet::WaitProcessTimestamp() {
  owner_role_.Assert();
  CKNN_CHECK(in_flight_);
  pool_.Wait();
  in_flight_ = false;
}

std::size_t ShardSet::NumQueries() const {
  owner_role_.Assert();
  CKNN_CHECK(!in_flight_);
  std::size_t n = 0;
  for (const Shard& shard : shards_) n += shard.monitor->NumQueries();
  return n;
}

Result<std::size_t> ShardSet::TryMemoryBytes() const {
  owner_role_.Assert();
  if (in_flight_) {
    return Status::FailedPrecondition(
        "memory metrics unavailable: a detached tick is in flight (Drain "
        "first)");
  }
  return MemoryBytes();
}

std::size_t ShardSet::MemoryBytes() const {
  owner_role_.Assert();
  CKNN_CHECK(!in_flight_);
  std::size_t bytes = 0;
  for (const Shard& shard : shards_) {
    bytes += shard.monitor->MemoryBytes();
    // Per-shard weight overlay of the shared-topology view (shard 0 uses
    // the server-owned primary network, which — like the shared topology
    // itself — is graph substrate, not monitoring structure).
    if (shard.network != nullptr) {
      bytes += shard.network->OverlayMemoryBytes();
    }
  }
  // Read-only structures shared across the shards (the GMA sequence
  // table), counted exactly once.
  bytes += shards_[0].monitor->SharedMemoryBytes();
  return bytes;
}

}  // namespace cknn
