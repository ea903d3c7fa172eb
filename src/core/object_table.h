#ifndef CKNN_CORE_OBJECT_TABLE_H_
#define CKNN_CORE_OBJECT_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/core/updates.h"
#include "src/graph/network_point.h"
#include "src/graph/road_network.h"
#include "src/graph/types.h"
#include "src/util/flat_id_map.h"
#include "src/util/result.h"
#include "src/util/status.h"

namespace cknn {

/// One object on an edge: its id and its offset along the edge (a
/// fraction of the edge from endpoint u, as in `NetworkPoint::t`). The
/// offset is held as raw bytes so an entry packs into 12 bytes, as
/// `CandidateSet`'s slots do; a bare id list took 4.
struct EdgeObject {
  ObjectId id = kInvalidObject;
  std::uint32_t t_bits[2] = {0, 0};

  EdgeObject() = default;
  EdgeObject(ObjectId object, double offset) : id(object) { set_t(offset); }

  double t() const {
    double offset = 0.0;
    std::memcpy(&offset, t_bits, sizeof offset);
    return offset;
  }
  void set_t(double offset) { std::memcpy(t_bits, &offset, sizeof offset); }
};
static_assert(sizeof(EdgeObject) == 12, "edge-list entries pack to 12 bytes");

/// \brief Positions of all data objects, with per-edge object lists — the
/// object half of the paper's edge table *ET* (Section 3).
///
/// Lookup directions:
///  * object id -> network point (for update validation and distances),
///  * edge id   -> (id, offset) of the objects currently on the edge
///                 (scanned during network expansion, Fig. 2 line 14).
///
/// As in ET, each edge list carries its objects' offsets, so a scan of an
/// edge reads every object's position from the list itself and never
/// probes the id map. The id map is a `FlatIdMap` (one flat
/// open-addressing array): no allocation per object, one probe per lookup,
/// and memory proportional to the live objects for any id pattern. Each
/// entry also records its index in its edge's list, so detaching an object
/// is an O(1) swap-erase. Every id, `kInvalidObject` included, is a valid
/// key.
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
  /// new only = Insert, neither = no-op. The server's apply stage calls it
  /// once per folded update; the engines only read the table.
  Status Apply(const ObjectUpdate& update);

  /// Current position of an object.
  Result<NetworkPoint> Position(ObjectId id) const;

  /// Current position of an object, or nullptr if absent (valid until the
  /// table next mutates).
  const NetworkPoint* Find(ObjectId id) const {
    const Entry* entry = ids_.Find(id);
    return entry == nullptr ? nullptr : &entry->pos;
  }

  bool Contains(ObjectId id) const { return ids_.Find(id) != nullptr; }

  /// Objects currently lying on edge `e`, with their offsets. The order is
  /// insertion order, except that detaching an object moves the list's
  /// last entry into its place.
  const std::vector<EdgeObject>& ObjectsOn(EdgeId e) const;

  std::size_t size() const { return ids_.size(); }

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
    ObjectId key() const { return id; }
  };

  /// Swap-erases `entry`'s id from its edge list, fixing the edge slot of
  /// the id moved into its place.
  void DetachFromEdge(const Entry& entry);

  FlatIdMap<Entry> ids_;
  std::vector<std::vector<EdgeObject>> per_edge_;
};

}  // namespace cknn

#endif  // CKNN_CORE_OBJECT_TABLE_H_
