#include "src/core/object_table.h"

#include <algorithm>

#include "src/util/macros.h"
#include "src/util/mem.h"

namespace cknn {

namespace {

constexpr std::size_t kMinCapacity = 16;

}  // namespace

Status ObjectTable::Insert(ObjectId id, const NetworkPoint& pos) {
  if (pos.edge >= per_edge_.size()) {
    return Status::InvalidArgument("object position on unknown edge");
  }
  if (Contains(id)) return Status::AlreadyExists("object id already present");
  if ((size_ + 1) * 4 > slots_.size() * 3) {
    Rehash(std::max(kMinCapacity, slots_.size() * 2));
  }
  std::vector<ObjectId>& list = per_edge_[pos.edge];
  slots_[Probe(id)] = Entry{pos, id, static_cast<std::uint32_t>(list.size())};
  list.push_back(id);
  ++size_;
  return Status::OK();
}

Status ObjectTable::Remove(ObjectId id) {
  const std::size_t i = SlotOf(id);
  if (i == kAbsent) return Status::NotFound("unknown object id");
  DetachFromEdge(slots_[i]);
  EraseSlot(i);
  --size_;
  if (size_ * 8 < slots_.size() && slots_.size() > kMinCapacity) {
    Rehash(slots_.size() / 2);
  }
  return Status::OK();
}

Status ObjectTable::Move(ObjectId id, const NetworkPoint& new_pos) {
  if (new_pos.edge >= per_edge_.size()) {
    return Status::InvalidArgument("object position on unknown edge");
  }
  const std::size_t i = SlotOf(id);
  if (i == kAbsent) return Status::NotFound("unknown object id");
  Entry& entry = slots_[i];
  if (entry.pos.edge != new_pos.edge) {
    DetachFromEdge(entry);
    std::vector<ObjectId>& list = per_edge_[new_pos.edge];
    entry.edge_slot = static_cast<std::uint32_t>(list.size());
    list.push_back(id);
  }
  entry.pos = new_pos;
  return Status::OK();
}

Status ObjectTable::Apply(const ObjectUpdate& update) {
  if (update.old_pos.has_value() && update.new_pos.has_value()) {
    return Move(update.id, *update.new_pos);
  }
  if (update.old_pos.has_value()) return Remove(update.id);
  if (update.new_pos.has_value()) return Insert(update.id, *update.new_pos);
  return Status::OK();
}

Result<NetworkPoint> ObjectTable::Position(ObjectId id) const {
  const NetworkPoint* pos = Find(id);
  if (pos == nullptr) return Status::NotFound("unknown object id");
  return *pos;
}

const std::vector<ObjectId>& ObjectTable::ObjectsOn(EdgeId e) const {
  CKNN_CHECK(e < per_edge_.size());
  return per_edge_[e];
}

void ObjectTable::Rehash(std::size_t capacity) {
  std::vector<Entry> old(capacity);
  old.swap(slots_);
  shift_ = 64;
  for (std::size_t c = capacity; c > 1; c >>= 1) --shift_;
  for (const Entry& entry : old) {
    if (!entry.vacant()) slots_[Probe(entry.id)] = entry;
  }
}

void ObjectTable::EraseSlot(std::size_t i) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = i;
  for (std::size_t j = (i + 1) & mask; !slots_[j].vacant();
       j = (j + 1) & mask) {
    // The entry at j may fill the hole unless its home lies cyclically in
    // (hole, j]: moving it before its home would hide it from Probe.
    if (((j - Home(slots_[j].id)) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Entry{};
}

void ObjectTable::DetachFromEdge(const Entry& entry) {
  // Swap-erase: the list's last id takes the detached one's place.
  std::vector<ObjectId>& list = per_edge_[entry.pos.edge];
  const ObjectId moved = list.back();
  list[entry.edge_slot] = moved;
  list.pop_back();
  if (moved != entry.id) {
    const std::size_t j = SlotOf(moved);
    CKNN_CHECK(j != kAbsent);
    slots_[j].edge_slot = entry.edge_slot;
  }
}

std::size_t ObjectTable::MemoryBytes() const {
  std::size_t bytes = VectorBytes(slots_) + VectorBytes(per_edge_);
  for (const auto& list : per_edge_) bytes += VectorBytes(list);
  return bytes;
}

}  // namespace cknn
