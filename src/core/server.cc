#include "src/core/server.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>

#include "src/util/macros.h"

namespace cknn {

namespace {

std::unique_ptr<PmrQuadtree> BuildSpatialIndex(const RoadNetwork& net) {
  Rect box = net.BoundingBox();
  // Pad so border segments survive floating-point containment checks. The
  // extent-proportional term covers ordinary networks; the absolute floor
  // keeps zero-extent workspaces (single point, coincident degenerate
  // edges) from collapsing into a box too thin to subdivide or search, and
  // is scaled with the coordinate magnitude so it cannot be absorbed by
  // floating-point rounding far from the origin.
  const double extent = std::max(box.Width(), box.Height());
  const double magnitude =
      std::max(std::max(std::abs(box.min_x), std::abs(box.max_x)),
               std::max(std::abs(box.min_y), std::abs(box.max_y)));
  const double pad =
      std::max(1e-3 * extent, std::max(1e-6, 1e-7 * magnitude));
  box.min_x -= pad;
  box.min_y -= pad;
  box.max_x += pad;
  box.max_y += pad;
  auto tree = std::make_unique<PmrQuadtree>(box);
  for (EdgeId e = 0; e < net.NumEdges(); ++e) {
    CKNN_CHECK(tree->Insert(e, net.EdgeSegment(e)).ok());
  }
  return tree;
}

/// Positions entering the system must lie on a known edge at a finite
/// fraction in [0, 1]; NaN offsets would otherwise slide through every
/// `<` comparison downstream (a NaN is ordered against nothing).
Status ValidateIncomingPoint(const NetworkPoint& p, std::size_t num_edges,
                             const char* what) {
  if (p.edge >= num_edges) {
    return Status::InvalidArgument(std::string(what) + " on unknown edge");
  }
  if (!std::isfinite(p.t) || p.t < 0.0 || p.t > 1.0) {
    return Status::InvalidArgument(
        std::string(what) + " offset is not a finite fraction in [0, 1]");
  }
  return Status::OK();
}

}  // namespace

Status CheckObjectUpdate(const ObjectUpdate& u,
                         const std::optional<NetworkPoint>& current,
                         std::size_t num_edges) {
  if (u.old_pos.has_value()) {
    if (!current.has_value()) {
      return Status::NotFound("update for unknown object");
    }
    if (!(*current == *u.old_pos)) {
      return Status::InvalidArgument(
          "object update old position does not match the table");
    }
  } else if (current.has_value()) {
    return Status::AlreadyExists("object appears but already exists");
  }
  if (u.new_pos.has_value()) {
    return ValidateIncomingPoint(*u.new_pos, num_edges, "object position");
  }
  return Status::OK();
}

Status CheckQueryUpdate(const QueryUpdate& u, bool registered,
                        std::size_t num_edges) {
  switch (u.kind) {
    case QueryUpdate::Kind::kTerminate:
      if (!registered) return Status::NotFound("terminate for unknown query");
      return Status::OK();
    case QueryUpdate::Kind::kMove:
      if (!registered) return Status::NotFound("move for unknown query");
      return ValidateIncomingPoint(u.pos, num_edges, "query move position");
    case QueryUpdate::Kind::kInstall:
      if (registered) {
        return Status::AlreadyExists("query id already monitored");
      }
      if (u.k < 1) return Status::InvalidArgument("k must be >= 1");
      return ValidateIncomingPoint(u.pos, num_edges, "query position");
  }
  return Status::OK();
}

Status CheckEdgeUpdate(const EdgeUpdate& u, std::size_t num_edges) {
  if (u.edge >= num_edges) {
    return Status::NotFound("weight update for unknown edge");
  }
  if (!std::isfinite(u.new_weight) || u.new_weight < 0.0) {
    return Status::InvalidArgument(
        "edge weight must be finite and non-negative");
  }
  return Status::OK();
}

namespace {

/// One stream's updates grouped by entity id: `(id << 32) | batch index`
/// keys, sorted, so each entity's chain is adjacent and in batch order.
/// Ids are 32-bit; indices fit because streams are shorter than
/// kMaxStreamLength.
using GroupKeys = std::vector<std::uint64_t>;

constexpr std::size_t kMaxStreamLength =
    std::numeric_limits<std::uint32_t>::max();

std::uint32_t IdOfKey(std::uint64_t key) {
  return static_cast<std::uint32_t>(key >> 32);
}

std::size_t IndexOfKey(std::uint64_t key) {
  return static_cast<std::size_t>(key & 0xFFFFFFFFu);
}

/// Keys of every update for which `id_of` yields an id.
template <typename Update, typename IdOf>
GroupKeys GroupById(const std::vector<Update>& updates, IdOf id_of) {
  GroupKeys keys;
  keys.reserve(updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const std::optional<std::uint32_t> id = id_of(updates[i]);
    if (id.has_value()) keys.push_back(std::uint64_t{*id} << 32 | i);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// End of the group whose first key is `keys[begin]`.
std::size_t GroupEnd(const GroupKeys& keys, std::size_t begin) {
  std::size_t end = begin + 1;
  while (end < keys.size() && IdOfKey(keys[end]) == IdOfKey(keys[begin])) {
    ++end;
  }
  return end;
}

/// Calls `fn(begin, end)` for every group's key range, in id order.
template <typename Fn>
void ForEachGroup(const GroupKeys& keys, Fn fn) {
  for (std::size_t begin = 0; begin < keys.size();) {
    const std::size_t end = GroupEnd(keys, begin);
    fn(begin, end);
    begin = end;
  }
}

/// Calls `fn(begin, end)` for every group's key range, in the batch order
/// of the groups' first updates — so a fold emits each entity where it
/// first appeared.
template <typename Fn>
void ForEachGroupInBatchOrder(const GroupKeys& keys, std::size_t num_updates,
                              Fn fn) {
  constexpr std::uint32_t kNoGroup = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> begin_at(num_updates, kNoGroup);
  ForEachGroup(keys, [&](std::size_t begin, std::size_t) {
    begin_at[IndexOfKey(keys[begin])] = static_cast<std::uint32_t>(begin);
  });
  for (const std::uint32_t begin : begin_at) {
    if (begin != kNoGroup) fn(begin, GroupEnd(keys, begin));
  }
}

/// Replays every entity's chain from its pre-batch state (`start(id)`)
/// through `step(update, &state)` and returns the status of the stream's
/// first failing update in batch order.
template <typename State, typename Update, typename Start, typename Step>
Status FirstFailure(const std::vector<Update>& updates, const GroupKeys& keys,
                    Start start, Step step) {
  std::size_t first_bad = kMaxStreamLength;
  Status status;
  ForEachGroup(keys, [&](std::size_t begin, std::size_t end) {
    State state = start(IdOfKey(keys[begin]));
    for (std::size_t k = begin; k < end; ++k) {
      const std::size_t i = IndexOfKey(keys[k]);
      if (i >= first_bad) return;  // Cannot precede the failure found.
      Status update_status = step(updates[i], &state);
      if (!update_status.ok()) {
        first_bad = i;
        status = std::move(update_status);
        return;
      }
    }
  });
  return status;
}

/// The object, query and edge streams of one batch, grouped by id.
struct GroupedBatch {
  GroupKeys objects;
  GroupKeys queries;
  GroupKeys edges;
};

GroupedBatch Group(const UpdateBatch& batch) {
  GroupedBatch groups;
  // An update with neither position is a no-op at any table state
  // (ObjectTable::Apply): it joins no chain.
  groups.objects = GroupById(
      batch.objects, [](const ObjectUpdate& u) -> std::optional<ObjectId> {
        if (!u.old_pos.has_value() && !u.new_pos.has_value()) {
          return std::nullopt;
        }
        return u.id;
      });
  groups.queries = GroupById(
      batch.queries,
      [](const QueryUpdate& u) -> std::optional<QueryId> { return u.id; });
  groups.edges = GroupById(
      batch.edges,
      [](const EdgeUpdate& u) -> std::optional<EdgeId> { return u.edge; });
  return groups;
}

/// Section 4.5's fold of validated updates, each entity emitted where it
/// first appeared.
UpdateBatch Fold(const UpdateBatch& batch, const GroupedBatch& groups) {
  UpdateBatch out;
  // Objects: each chain folds to (first old position, last new position);
  // an object that appears and disappears within the timestamp cancels
  // out.
  ForEachGroupInBatchOrder(
      groups.objects, batch.objects.size(),
      [&](std::size_t begin, std::size_t end) {
        ObjectUpdate folded = batch.objects[IndexOfKey(groups.objects[begin])];
        folded.new_pos =
            batch.objects[IndexOfKey(groups.objects[end - 1])].new_pos;
        if (folded.old_pos.has_value() || folded.new_pos.has_value()) {
          out.objects.push_back(folded);
        }
      });
  // Queries: a chain whose first update is kInstall introduces a new
  // query; one starting with kMove/kTerminate continues a registered one.
  // A registered query that terminates and re-installs within the
  // timestamp cannot collapse into a single update (a bare install would
  // collide with the still-registered id), so it folds to a kTerminate
  // immediately followed by a kInstall — the one sanctioned exception to
  // "one update per entity" (see Monitor::ProcessTimestamp): every
  // algorithm processes terminations before installations.
  ForEachGroupInBatchOrder(
      groups.queries, batch.queries.size(),
      [&](std::size_t begin, std::size_t end) {
        const QueryUpdate& first =
            batch.queries[IndexOfKey(groups.queries[begin])];
        const QueryUpdate& last =
            batch.queries[IndexOfKey(groups.queries[end - 1])];
        const bool began_alive = first.kind != QueryUpdate::Kind::kInstall;
        const bool ends_alive = last.kind != QueryUpdate::Kind::kTerminate;
        bool terminated = false;
        int k = 1;  // The last installation's k.
        for (std::size_t g = begin; g < end; ++g) {
          const QueryUpdate& u = batch.queries[IndexOfKey(groups.queries[g])];
          if (u.kind == QueryUpdate::Kind::kTerminate) terminated = true;
          if (u.kind == QueryUpdate::Kind::kInstall) k = u.k;
        }
        if (began_alive && (terminated || !ends_alive)) {
          out.queries.push_back(QueryUpdate{
              first.id, QueryUpdate::Kind::kTerminate, NetworkPoint{}, 0});
        }
        if (!ends_alive) return;
        if (!began_alive || terminated) {
          out.queries.push_back(
              QueryUpdate{first.id, QueryUpdate::Kind::kInstall, last.pos, k});
        } else {
          out.queries.push_back(
              QueryUpdate{first.id, QueryUpdate::Kind::kMove, last.pos, 0});
        }
      });
  // Edges: last weight wins (the paper aggregates weight changes into one
  // overall change per timestamp).
  ForEachGroupInBatchOrder(
      groups.edges, batch.edges.size(),
      [&](std::size_t begin, std::size_t end) {
        EdgeUpdate folded = batch.edges[IndexOfKey(groups.edges[begin])];
        folded.new_weight =
            batch.edges[IndexOfKey(groups.edges[end - 1])].new_weight;
        out.edges.push_back(folded);
      });
  return out;
}

}  // namespace

MonitoringServer::MonitoringServer(RoadNetwork network, Algorithm algorithm,
                                   int num_shards, int pipeline_depth)
    : network_(std::move(network)),
      objects_(network_.NumEdges()),
      spatial_index_(BuildSpatialIndex(network_)),
      algorithm_(algorithm),
      pipeline_depth_(pipeline_depth),
      shards_(&network_, &objects_, algorithm, num_shards) {
  CKNN_CHECK(pipeline_depth >= 1 && pipeline_depth <= 2);
}

UpdateBatch MonitoringServer::AggregateBatch(const UpdateBatch& batch) {
  return Fold(batch, Group(batch));
}

Result<UpdateBatch> MonitoringServer::Prepare(const UpdateBatch& batch) const {
  if (batch.objects.size() >= kMaxStreamLength ||
      batch.queries.size() >= kMaxStreamLength ||
      batch.edges.size() >= kMaxStreamLength) {
    return Status::ResourceExhausted("update stream too long for one batch");
  }
  const std::size_t num_edges = network_.NumEdges();
  const GroupedBatch groups = Group(batch);
  // Validate every raw update in stream order (objects, queries, edges)
  // against exactly the state a one-update-per-tick replay would see: the
  // pre-batch tables plus the entity's own earlier updates in this batch.
  // Nothing is mutated — in pipelined mode the in-flight tick's shards
  // read the object table concurrently, and the pre-batch registration
  // state comes from the shard set's caller-side registry, which is safe
  // to read while a detached tick mutates the engines. Queries are
  // validated here too, so a batch a shard would reject cannot leave the
  // shared table mutated but unrouted.
  CKNN_RETURN_NOT_OK(FirstFailure<std::optional<NetworkPoint>>(
      batch.objects, groups.objects,
      [&](ObjectId id) -> std::optional<NetworkPoint> {
        const NetworkPoint* pos = objects_.Find(id);
        if (pos == nullptr) return std::nullopt;
        return *pos;
      },
      [&](const ObjectUpdate& u, std::optional<NetworkPoint>* pos) {
        CKNN_RETURN_NOT_OK(CheckObjectUpdate(u, *pos, num_edges));
        *pos = u.new_pos;
        return Status::OK();
      }));
  CKNN_RETURN_NOT_OK(FirstFailure<bool>(
      batch.queries, groups.queries,
      [&](QueryId id) { return shards_.IsRegistered(id); },
      [&](const QueryUpdate& u, bool* registered) {
        CKNN_RETURN_NOT_OK(CheckQueryUpdate(u, *registered, num_edges));
        if (u.kind == QueryUpdate::Kind::kInstall) *registered = true;
        if (u.kind == QueryUpdate::Kind::kTerminate) *registered = false;
        return Status::OK();
      }));
  for (const EdgeUpdate& u : batch.edges) {
    CKNN_RETURN_NOT_OK(CheckEdgeUpdate(u, num_edges));
  }
  return Fold(batch, groups);
}

void MonitoringServer::ApplyObjectUpdates(const UpdateBatch& aggregated) {
  // Stage 3: apply object updates to the shared table exactly once — the
  // table's only writer. The shards only route these updates through
  // their maintenance structures; during the parallel phase the table is
  // read-only.
  for (const ObjectUpdate& u : aggregated.objects) {
    CKNN_CHECK(objects_.Apply(u).ok());
  }
}

Status MonitoringServer::SubmitBatch(const UpdateBatch& batch) {
  // Stages 1–2: validate, then fold (Section 4.5 preprocessing), before
  // anything mutates state (the engines CKNN_CHECK internally). At depth 2
  // this overlaps the previous tick's shard maintenance on the pool
  // workers (docs/pipeline.md).
  Result<UpdateBatch> prepared = Prepare(batch);
  CKNN_RETURN_NOT_OK(prepared.status());
  // Apply barrier: the shared table may only mutate once the in-flight
  // tick has fully retired.
  CKNN_RETURN_NOT_OK(Drain());
  // Stage 3.
  ApplyObjectUpdates(prepared.value());
  // Stages 4+5: per-shard maintenance, statuses merged in shard order by
  // the Drain that retires this tick.
  shards_.BeginProcessTimestamp(std::move(prepared).value());
  ++timestamp_;
  if (pipeline_depth_ == 1) return Drain();
  return Status::OK();
}

Status MonitoringServer::Drain() {
  if (shards_.InFlight()) {
    // Stage-2 validation makes a shard failure unreachable; were one to
    // slip through anyway, the table would already be mutated with the
    // engines unrouted, so a desynced-state Status must not escape as if
    // the server were still usable.
    const Status shard_status = shards_.WaitProcessTimestamp();
    CKNN_CHECK(shard_status.ok());
  }
  return Status::OK();
}

Status MonitoringServer::Tick(const UpdateBatch& batch) {
  CKNN_RETURN_NOT_OK(SubmitBatch(batch));
  return Drain();
}

Status MonitoringServer::InstallQuery(QueryId id, const NetworkPoint& pos,
                                      int k) {
  UpdateBatch batch;
  batch.queries.push_back(
      QueryUpdate{id, QueryUpdate::Kind::kInstall, pos, k});
  return Tick(batch);
}

Status MonitoringServer::TerminateQuery(QueryId id) {
  UpdateBatch batch;
  batch.queries.push_back(
      QueryUpdate{id, QueryUpdate::Kind::kTerminate, NetworkPoint{}, 0});
  return Tick(batch);
}

Status MonitoringServer::MoveQuery(QueryId id, const NetworkPoint& pos) {
  UpdateBatch batch;
  batch.queries.push_back(QueryUpdate{id, QueryUpdate::Kind::kMove, pos, 0});
  return Tick(batch);
}

Status MonitoringServer::AddObject(ObjectId id, const NetworkPoint& pos) {
  UpdateBatch batch;
  batch.objects.push_back(ObjectUpdate{id, std::nullopt, pos});
  return Tick(batch);
}

Status MonitoringServer::RemoveObject(ObjectId id) {
  auto pos = objects_.Position(id);
  if (!pos.ok()) return pos.status();
  UpdateBatch batch;
  batch.objects.push_back(ObjectUpdate{id, pos.value(), std::nullopt});
  return Tick(batch);
}

Status MonitoringServer::MoveObject(ObjectId id, const NetworkPoint& pos) {
  auto old_pos = objects_.Position(id);
  if (!old_pos.ok()) return old_pos.status();
  UpdateBatch batch;
  batch.objects.push_back(ObjectUpdate{id, old_pos.value(), pos});
  return Tick(batch);
}

Status MonitoringServer::UpdateEdgeWeight(EdgeId edge, double new_weight) {
  UpdateBatch batch;
  batch.edges.push_back(EdgeUpdate{edge, new_weight});
  return Tick(batch);
}

std::size_t MonitoringServer::MemoryBytes() const {
  return MonitorMemoryBytes() + objects_.MemoryBytes() +
         network_.MemoryBytes() + spatial_index_->MemoryBytes();
}

Result<NetworkPoint> MonitoringServer::Snap(const Point& p) const {
  auto hit = spatial_index_->Nearest(p);
  if (!hit.ok()) return hit.status();
  return NetworkPoint{static_cast<EdgeId>(hit->id), hit->t};
}

}  // namespace cknn
