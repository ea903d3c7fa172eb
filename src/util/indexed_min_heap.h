#ifndef CKNN_UTIL_INDEXED_MIN_HEAP_H_
#define CKNN_UTIL_INDEXED_MIN_HEAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/flat_id_map.h"
#include "src/util/macros.h"

namespace cknn {

/// \brief Binary min-heap keyed by double with decrease-key support,
/// addressable by an integer id. This is the search heap `H` of the paper's
/// Figure 2: network expansion needs to decrease the tentative distance of a
/// node that is already en-heaped (lines 20-23).
///
/// Ids are arbitrary 64-bit integers (node ids in practice); each id's
/// array position is kept in a `FlatIdMap`, so the index costs memory in
/// proportion to the en-heaped ids, whatever their range. Sifting moves
/// entries into a hole and records one position per move.
class IndexedMinHeap {
 public:
  struct Entry {
    std::uint64_t id;
    double key;
  };

  IndexedMinHeap() = default;

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// True iff `id` is currently en-heaped.
  bool Contains(std::uint64_t id) const { return pos_.Find(id) != nullptr; }

  /// Key of an en-heaped id. Checked error if absent.
  double KeyOf(std::uint64_t id) const {
    const Position* p = pos_.Find(id);
    CKNN_CHECK(p != nullptr);
    return heap_[p->pos].key;
  }

  /// Smallest entry. Checked error when empty.
  const Entry& Top() const {
    CKNN_CHECK(!heap_.empty());
    return heap_[0];
  }

  /// Inserts a new id. Checked error if already present.
  void Push(std::uint64_t id, double key) {
    CKNN_CHECK(!Contains(id));
    PushOrDecrease(id, key);
  }

  /// Inserts `id`, or lowers its key if already present with a larger key.
  /// Returns true if the heap changed.
  bool PushOrDecrease(std::uint64_t id, double key) {
    const auto [p, inserted] = pos_.Insert(Position{id, heap_.size()});
    if (inserted) {
      heap_.push_back(Entry{id, key});
    } else if (key < heap_[p->pos].key) {
      heap_[p->pos].key = key;
    } else {
      return false;
    }
    SiftUp(p->pos);
    return true;
  }

  /// Removes and returns the smallest entry.
  Entry Pop() {
    CKNN_CHECK(!heap_.empty());
    const Entry top = heap_[0];
    Erase(top.id);
    return top;
  }

  /// Removes an arbitrary id if present; returns true if it was removed.
  bool Erase(std::uint64_t id) {
    Position* p = pos_.Find(id);
    if (p == nullptr) return false;
    const std::size_t i = p->pos;
    pos_.Erase(p);
    const Entry last = heap_.back();
    heap_.pop_back();
    if (i < heap_.size()) {
      heap_[i] = last;
      SiftDown(i);
      SiftUp(i);
    }
    return true;
  }

  void Clear() {
    heap_.clear();
    pos_.Clear();
  }

  /// Estimated heap footprint in bytes: the entry array plus the position
  /// index.
  std::size_t MemoryBytes() const {
    return heap_.capacity() * sizeof(Entry) + pos_.MemoryBytes();
  }

 private:
  /// Array position of one en-heaped id; `pos == kVacant` marks a vacant
  /// slot, so every 64-bit id is a usable key.
  struct Position {
    static constexpr std::size_t kVacant = SIZE_MAX;

    std::uint64_t id = 0;
    std::size_t pos = kVacant;

    bool vacant() const { return pos == kVacant; }
    std::uint64_t key() const { return id; }
  };

  /// Stores `e` at index `i` and records its position.
  void Place(std::size_t i, const Entry& e) {
    heap_[i] = e;
    pos_.Find(e.id)->pos = i;
  }

  void SiftUp(std::size_t i) {
    const Entry e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (heap_[parent].key <= e.key) break;
      Place(i, heap_[parent]);
      i = parent;
    }
    Place(i, e);
  }

  void SiftDown(std::size_t i) {
    const Entry e = heap_[i];
    const std::size_t n = heap_.size();
    while (true) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && heap_[child + 1].key < heap_[child].key) ++child;
      if (!(heap_[child].key < e.key)) break;
      Place(i, heap_[child]);
      i = child;
    }
    Place(i, e);
  }

  std::vector<Entry> heap_;
  FlatIdMap<Position> pos_;
};

}  // namespace cknn

#endif  // CKNN_UTIL_INDEXED_MIN_HEAP_H_
