#ifndef CKNN_UTIL_SLOT_TABLE_H_
#define CKNN_UTIL_SLOT_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/flat_id_map.h"
#include "src/util/macros.h"

namespace cknn {

/// \brief Records keyed by an integer id, stored densely by slot: one
/// vector of records and a `FlatIdMap` from id to slot.
///
/// A record keeps its slot for as long as it lives, so other structures
/// can name it by slot and reach it with one index instead of an id probe.
/// An erased record is reset to `T{}` (releasing what it owned) and its
/// slot is handed to the next insert. Walks go in slot order, which is a
/// deterministic function of the insert/erase history.
template <typename Id, typename T>
class SlotTable {
 public:
  using Slot = std::uint32_t;
  static constexpr Slot kNoSlot = ~Slot{0};

  std::size_t size() const { return index_.size(); }
  bool empty() const { return index_.empty(); }

  /// Slot of `id`, or kNoSlot.
  Slot SlotOf(Id id) const {
    const IndexSlot* found = index_.Find(id);
    return found == nullptr ? kNoSlot : found->slot;
  }

  /// Record of `id`, or nullptr. Valid until the next Insert.
  T* Find(Id id) {
    const Slot slot = SlotOf(id);
    return slot == kNoSlot ? nullptr : &items_[slot].value;
  }
  const T* Find(Id id) const {
    return const_cast<SlotTable*>(this)->Find(id);
  }

  /// Adds a default record for `id` unless present. Returns its slot and
  /// whether it was added.
  std::pair<Slot, bool> Insert(Id id) {
    const Slot present = SlotOf(id);
    if (present != kNoSlot) return {present, false};
    Slot slot;
    if (free_.empty()) {
      slot = static_cast<Slot>(items_.size());
      items_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    index_.Insert(IndexSlot{id, slot});
    items_[slot].id = id;
    items_[slot].live = true;
    return {slot, true};
  }

  /// Erases the live record in `slot`.
  void Erase(Slot slot) {
    CKNN_DCHECK(Live(slot));
    index_.Erase(index_.Find(items_[slot].id));
    items_[slot] = Item{};
    free_.push_back(slot);
  }

  /// Number of slots, live or free; every slot is below it.
  std::size_t NumSlots() const { return items_.size(); }
  bool Live(Slot slot) const { return items_[slot].live; }
  Id IdAt(Slot slot) const { return items_[slot].id; }
  T& operator[](Slot slot) { return items_[slot].value; }
  const T& operator[](Slot slot) const { return items_[slot].value; }

  /// Calls `f(slot, record)` for every live record, in slot order.
  template <typename F>
  void ForEach(F&& f) const {
    for (Slot slot = 0; slot < items_.size(); ++slot) {
      if (items_[slot].live) f(slot, items_[slot].value);
    }
  }
  template <typename F>
  void ForEachMutable(F&& f) {
    for (Slot slot = 0; slot < items_.size(); ++slot) {
      if (items_[slot].live) f(slot, items_[slot].value);
    }
  }

  /// Heap footprint of the table itself: the record array, the id index
  /// and the free list. What a record owns is the caller's to count.
  std::size_t MemoryBytes() const {
    return items_.capacity() * sizeof(Item) + index_.MemoryBytes() +
           free_.capacity() * sizeof(Slot);
  }

 private:
  struct IndexSlot {
    Id id = 0;
    Slot slot = kNoSlot;

    bool vacant() const { return slot == kNoSlot; }
    Id key() const { return id; }
  };

  struct Item {
    Id id = 0;
    bool live = false;
    T value;
  };

  FlatIdMap<IndexSlot> index_;
  std::vector<Item> items_;
  /// Vacated slots, reused last-in first-out.
  std::vector<Slot> free_;
};

}  // namespace cknn

#endif  // CKNN_UTIL_SLOT_TABLE_H_
