#ifndef CKNN_CORE_OBJECT_TABLE_H_
#define CKNN_CORE_OBJECT_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/updates.h"
#include "src/graph/network_point.h"
#include "src/graph/road_network.h"
#include "src/graph/types.h"
#include "src/util/result.h"
#include "src/util/status.h"

namespace cknn {

/// \brief Positions of all data objects, with per-edge object lists — the
/// object half of the paper's edge table *ET* (Section 3).
///
/// Lookup directions:
///  * object id -> network point (for update validation and distances),
///  * edge id   -> ids of objects currently on the edge (scanned during
///                 network expansion, Fig. 2 line 14).
///
/// The id map is one flat open-addressing array (linear probing,
/// multiplicative hashing, backward-shift deletion): no allocation per
/// object, one probe per lookup, and memory proportional to the live
/// objects for any id pattern (it grows at 3/4 load and shrinks below
/// 1/8). Each entry also records its index in its edge's list, so detaching
/// an object is an O(1) swap-erase. Every id, `kInvalidObject` included,
/// is a valid key.
class ObjectTable {
 public:
  /// \param num_edges edge-count of the network the table serves.
  explicit ObjectTable(std::size_t num_edges) : per_edge_(num_edges) {}

  ObjectTable(const ObjectTable&) = delete;
  ObjectTable& operator=(const ObjectTable&) = delete;
  ObjectTable(ObjectTable&&) = default;
  ObjectTable& operator=(ObjectTable&&) = default;

  /// Registers a new object. AlreadyExists if the id is in use.
  Status Insert(ObjectId id, const NetworkPoint& pos);

  /// Removes an object. NotFound if absent.
  Status Remove(ObjectId id);

  /// Moves an existing object. NotFound if absent.
  Status Move(ObjectId id, const NetworkPoint& new_pos);

  /// Applies one location update: old+new = Move, old only = Remove,
  /// new only = Insert, neither = no-op. The single dispatch shared by the
  /// server's table stage and the standalone monitors.
  Status Apply(const ObjectUpdate& update);

  /// Current position of an object.
  Result<NetworkPoint> Position(ObjectId id) const;

  /// Current position of an object, or nullptr if absent (valid until the
  /// table next mutates).
  const NetworkPoint* Find(ObjectId id) const {
    const std::size_t i = SlotOf(id);
    return i == kAbsent ? nullptr : &slots_[i].pos;
  }

  bool Contains(ObjectId id) const { return SlotOf(id) != kAbsent; }

  /// Objects currently lying on edge `e`.
  const std::vector<ObjectId>& ObjectsOn(EdgeId e) const;

  std::size_t size() const { return size_; }

  /// Estimated heap footprint in bytes.
  std::size_t MemoryBytes() const;

 private:
  /// One slot of the id map. A slot is vacant when `pos.edge` is
  /// kInvalidEdge: a stored position always lies on a known edge.
  struct Entry {
    NetworkPoint pos;
    ObjectId id = kInvalidObject;
    /// Index of `id` in `per_edge_[pos.edge]`.
    std::uint32_t edge_slot = 0;

    bool vacant() const { return pos.edge == kInvalidEdge; }
  };

  static constexpr std::size_t kAbsent = ~std::size_t{0};

  /// Home slot of `id` (Fibonacci hashing; needs a non-empty map).
  std::size_t Home(ObjectId id) const {
    return static_cast<std::size_t>(
        (std::uint64_t{id} * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// Slot holding `id`, or the vacant slot where it would go.
  std::size_t Probe(ObjectId id) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = Home(id);
    while (!slots_[i].vacant() && slots_[i].id != id) i = (i + 1) & mask;
    return i;
  }

  /// Slot holding `id`, or kAbsent.
  std::size_t SlotOf(ObjectId id) const {
    if (slots_.empty()) return kAbsent;
    const std::size_t i = Probe(id);
    return slots_[i].vacant() ? kAbsent : i;
  }

  /// Re-inserts every entry into `capacity` (a power of two) slots.
  void Rehash(std::size_t capacity);

  /// Vacates slot `i`, shifting later entries of its probe run back.
  void EraseSlot(std::size_t i);

  /// Swap-erases `entry`'s id from its edge list, fixing the edge slot of
  /// the id moved into its place.
  void DetachFromEdge(const Entry& entry);

  std::vector<Entry> slots_;
  std::size_t size_ = 0;
  /// 64 - log2(slots_.size()).
  unsigned shift_ = 64;
  std::vector<std::vector<ObjectId>> per_edge_;
};

}  // namespace cknn

#endif  // CKNN_CORE_OBJECT_TABLE_H_
