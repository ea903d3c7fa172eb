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
      case QueryUpdate::Kind::kTerminate: {
        const Queries::Slot slot = queries_.SlotOf(qu.id);
        if (slot == Queries::kNoSlot) {
          return Status::NotFound("terminate for unknown query");
        }
        queries_.Erase(slot);
        break;
      }
      case QueryUpdate::Kind::kMove: {
        UserQuery* uq = queries_.Find(qu.id);
        if (uq == nullptr) return Status::NotFound("move for unknown query");
        uq->pos = qu.pos;
        break;
      }
      case QueryUpdate::Kind::kInstall: {
        if (qu.k < 1) return Status::InvalidArgument("k must be >= 1");
        const auto [slot, inserted] = queries_.Insert(qu.id);
        if (!inserted) {
          return Status::AlreadyExists("query id already monitored");
        }
        queries_[slot].pos = qu.pos;
        queries_[slot].k = qu.k;
        break;
      }
    }
  }
  // Overhaul: recompute everything (Fig. 2 per query). The scratch
  // expansion is reused across queries: clearing its arrays in place
  // instead of rebuilding the state/frontier/candidate structures each time.
  queries_.ForEachMutable([&](Queries::Slot, UserQuery& uq) {
    uq.result = SnapshotKnn(*net_, *objects_, uq.pos, uq.k, &scratch_);
  });
  return Status::OK();
}

const std::vector<Neighbor>* Ovh::ResultOf(QueryId id) const {
  const UserQuery* uq = queries_.Find(id);
  return uq == nullptr ? nullptr : &uq->result;
}

std::size_t Ovh::MemoryBytes() const {
  std::size_t bytes = queries_.MemoryBytes() + scratch_.MemoryBytes();
  queries_.ForEach(
      [&](Queries::Slot, const UserQuery& uq) { bytes += VectorBytes(uq.result); });
  return bytes;
}

}  // namespace cknn
