#include "src/core/ovh.h"

#include "src/util/macros.h"
#include "src/util/mem.h"

namespace cknn {

Status Ovh::ProcessTimestamp(const UpdateBatch& batch) {
  // Apply edge updates to this view's weights; the object table already
  // holds the batch's object updates. No result maintenance state exists.
  for (const EdgeUpdate& u : batch.edges) {
    CKNN_RETURN_NOT_OK(net_->SetWeight(u.edge, u.new_weight));
  }
  for (const QueryUpdate& qu : batch.queries) {
    switch (qu.kind) {
      case QueryUpdate::Kind::kTerminate:
        if (queries_.erase(qu.id) == 0) {
          return Status::NotFound("terminate for unknown query");
        }
        break;
      case QueryUpdate::Kind::kMove: {
        auto it = queries_.find(qu.id);
        if (it == queries_.end()) {
          return Status::NotFound("move for unknown query");
        }
        it->second.pos = qu.pos;
        break;
      }
      case QueryUpdate::Kind::kInstall: {
        if (qu.k < 1) return Status::InvalidArgument("k must be >= 1");
        if (queries_.count(qu.id) != 0) {
          return Status::AlreadyExists("query id already monitored");
        }
        UserQuery& uq = queries_[qu.id];
        uq.pos = qu.pos;
        uq.k = qu.k;
        break;
      }
    }
  }
  // Overhaul: recompute everything (Fig. 2 per query). The scratch
  // expansion is reused across queries: clearing its arrays in place
  // instead of rebuilding the state/frontier/candidate structures each time.
  // cknn-lint: allow(unordered-iter) per-query recompute into (q)-keyed state
  for (auto& [id, uq] : queries_) {
    (void)id;
    uq.result = SnapshotKnn(*net_, *objects_, uq.pos, uq.k, &scratch_);
  }
  return Status::OK();
}

const std::vector<Neighbor>* Ovh::ResultOf(QueryId id) const {
  auto it = queries_.find(id);
  return it == queries_.end() ? nullptr : &it->second.result;
}

std::size_t Ovh::MemoryBytes() const {
  std::size_t bytes = HashMapBytes(queries_) + scratch_.MemoryBytes();
  // cknn-lint: allow(unordered-iter) commutative byte sum
  for (const auto& [id, uq] : queries_) {
    (void)id;
    bytes += VectorBytes(uq.result);
  }
  return bytes;
}

}  // namespace cknn
