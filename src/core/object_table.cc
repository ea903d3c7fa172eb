#include "src/core/object_table.h"

#include "src/util/macros.h"
#include "src/util/mem.h"

namespace cknn {

void ObjectTable::Insert(ObjectId id, const NetworkPoint& pos) {
  CKNN_CHECK(pos.edge < per_edge_.size());
  std::vector<EdgeObject>& list = per_edge_[pos.edge];
  const bool inserted =
      ids_.Insert(Entry{pos, id, static_cast<std::uint32_t>(list.size())})
          .second;
  CKNN_CHECK(inserted);
  list.push_back(EdgeObject(id, pos.t));
}

void ObjectTable::Remove(ObjectId id) {
  Entry* entry = ids_.Find(id);
  CKNN_CHECK(entry != nullptr);
  DetachFromEdge(*entry);
  ids_.Erase(entry);
}

void ObjectTable::Move(ObjectId id, const NetworkPoint& new_pos) {
  CKNN_CHECK(new_pos.edge < per_edge_.size());
  Entry* entry = ids_.Find(id);
  CKNN_CHECK(entry != nullptr);
  if (entry->pos.edge == new_pos.edge) {
    per_edge_[new_pos.edge][entry->edge_slot].set_t(new_pos.t);
  } else {
    DetachFromEdge(*entry);
    std::vector<EdgeObject>& list = per_edge_[new_pos.edge];
    entry->edge_slot = static_cast<std::uint32_t>(list.size());
    list.push_back(EdgeObject(id, new_pos.t));
  }
  entry->pos = new_pos;
}

void ObjectTable::Apply(const ObjectUpdate& update) {
  if (update.old_pos.has_value() && update.new_pos.has_value()) {
    Move(update.id, *update.new_pos);
  } else if (update.old_pos.has_value()) {
    Remove(update.id);
  } else if (update.new_pos.has_value()) {
    Insert(update.id, *update.new_pos);
  }
}

Result<NetworkPoint> ObjectTable::Position(ObjectId id) const {
  const NetworkPoint* pos = Find(id);
  if (pos == nullptr) return Status::NotFound("unknown object id");
  return *pos;
}

const std::vector<EdgeObject>& ObjectTable::ObjectsOn(EdgeId e) const {
  CKNN_CHECK(e < per_edge_.size());
  return per_edge_[e];
}

void ObjectTable::DetachFromEdge(const Entry& entry) {
  // Swap-erase: the list's last object takes the detached one's place.
  std::vector<EdgeObject>& list = per_edge_[entry.pos.edge];
  const EdgeObject moved = list.back();
  list[entry.edge_slot] = moved;
  list.pop_back();
  if (moved.id != entry.id) {
    Entry* moved_entry = ids_.Find(moved.id);
    CKNN_CHECK(moved_entry != nullptr);
    moved_entry->edge_slot = entry.edge_slot;
  }
}

std::size_t ObjectTable::MemoryBytes() const {
  std::size_t bytes = ids_.MemoryBytes() + VectorBytes(per_edge_);
  for (const auto& list : per_edge_) bytes += VectorBytes(list);
  return bytes;
}

}  // namespace cknn
