#ifndef CKNN_CORE_TOP_K_H_
#define CKNN_CORE_TOP_K_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "src/core/updates.h"
#include "src/graph/types.h"
#include "src/util/flat_id_map.h"

namespace cknn {

/// \brief Distance-ordered candidate set — the generalized `q.result` of the
/// paper.
///
/// Stores, for every object the expansion has discovered, its best known
/// network distance. The k nearest neighbors are the k smallest entries;
/// `KthDist(k)` is the paper's `q.kNN_dist` (infinity while fewer than k
/// candidates are known). Keeping *all* discovered candidates — the k best
/// plus everything else inside the covered region — is what lets the
/// incremental algorithms re-rank after outgoing/incoming updates without
/// re-scanning the network, and closes the tie-at-the-kth-distance gap of
/// the paper's presentation.
///
/// Ordering is by (distance, id) so results are deterministic under ties.
///
/// Representation: an id->distance hash map plus a small sorted array of
/// the nearest entries. The expansion hot path only ever Offers and reads
/// `KthDist`, both O(1)-ish against the array (a sorted insert of a few
/// dozen elements), replacing the former red-black-tree node churn. The
/// side map is a `FlatIdMap` of 12-byte slots: one flat array, so an
/// Offer or Remove allocates and frees nothing (a node-based
/// `std::unordered_map` paid one heap node per new candidate; replacing
/// it, together with the edge-resident object offsets, halved the
/// benchmark's `paper_ima` tick, see docs/expansion.md), and a cleared
/// scratch set keeps its array for the next search. A hash map, not a
/// table indexed by id: a monitoring server keeps one CandidateSet per
/// query, each holding a handful of candidates drawn from the whole
/// object-id space, and a paged dense table cost O(id space) bytes and
/// O(id space / page) iteration per query (measured as a >1.25x slowdown
/// on the paper's Fig. 13 cardinality sweeps at N = 200k).
/// The array is always a prefix of the ranking: it holds the m nearest
/// keys for some m up to its cap, and every untracked key ranks after its
/// last one. Operations that take keys out of it (removals, distance
/// raises, prunes) only shorten the prefix, so a ranked read of rank k is
/// exact as soon as the prefix has k keys; maintenance removes and raises
/// tracked keys in runs (`ImaEngine::RescanEdge`), and the cap's slack
/// over k absorbs most runs. Only a read past the prefix refills it, by
/// selection: one pass gathers the untracked keys (those past the last
/// tracked one) into a reused per-thread array, `nth_element` picks the
/// few missing ones and only those are sorted. The array tracks `kTopCap`
/// (64) entries by default and grows to the largest k ever asked of a
/// ranked read, so large-k workloads (the paper's Fig. 14a goes to
/// k = 200) keep O(1) reads instead of an O(n) scan per expansion step.
class CandidateSet {
 public:
  CandidateSet() = default;

  /// Lowers the stored distance of `id` to `dist` if it improves (or inserts
  /// it). Returns true if the set changed. Distances are never NaN.
  bool Offer(ObjectId id, double dist);

  /// Replaces the stored distance of `id` (inserting if absent), regardless
  /// of direction. Used when a known object's distance is re-derived after
  /// weight changes.
  void Set(ObjectId id, double dist);

  /// Removes `id` if present; returns its old distance, or nullopt.
  std::optional<double> Remove(ObjectId id);

  /// Stored distance of `id`, or nullopt.
  std::optional<double> DistanceOf(ObjectId id) const;

  bool Contains(ObjectId id) const { return by_id_.Find(id) != nullptr; }

  std::size_t size() const { return by_id_.size(); }
  bool empty() const { return by_id_.empty(); }

  /// Distance of the k-th nearest candidate; +inf while size() < k.
  double KthDist(int k) const;

  /// The k nearest candidates in (distance, id) order (fewer if size() < k).
  std::vector<Neighbor> TopK(int k) const;

  /// All candidates in (distance, id) order.
  std::vector<Neighbor> All() const;

  /// Removes every candidate with distance > bound.
  void PruneBeyond(double bound);

  /// Removes every candidate, keeping the map's capacity for reuse.
  void Clear();

  /// Estimated heap footprint in bytes: the map's slot array and the
  /// sorted array.
  std::size_t MemoryBytes() const;

  /// Iteration over (id, distance) pairs; unspecified order. `f` must not
  /// modify the set.
  template <typename F>
  void ForEachCandidate(F&& f) const {
    by_id_.ForEach([&](const Slot& slot) { f(slot.id, slot.dist()); });
  }

 private:
  using Key = std::pair<double, ObjectId>;

  /// One slot of the id -> distance map. The distance is held as raw
  /// bytes so the slot packs into 12 bytes; the all-ones pattern (a NaN,
  /// never a distance) marks a vacant slot, so every id is a valid key.
  struct Slot {
    static constexpr std::uint32_t kVacant = ~std::uint32_t{0};

    ObjectId id = 0;
    std::uint32_t dist_bits[2] = {kVacant, kVacant};

    Slot() = default;
    Slot(ObjectId object, double dist) : id(object) { set_dist(dist); }

    bool vacant() const {
      return dist_bits[0] == kVacant && dist_bits[1] == kVacant;
    }
    ObjectId key() const { return id; }
    double dist() const {
      double d = 0.0;
      std::memcpy(&d, dist_bits, sizeof d);
      return d;
    }
    void set_dist(double d) { std::memcpy(dist_bits, &d, sizeof d); }
  };
  static_assert(sizeof(Slot) == 12, "candidate slots pack to 12 bytes");

  /// Default size of the sorted nearest-entries array; covers every
  /// small-k workload without growth.
  static constexpr int kTopCap = 64;
  /// Largest gathering array (in keys) a rebuild leaves on its thread.
  static constexpr std::size_t kMaxKeptScratch = std::size_t{1} << 16;

  /// Grows the tracked range to at least `k`. The cap never shrinks —
  /// ranked reads stay O(1) for every k seen so far at an O(cap)
  /// sorted-insert cost per mutation. The array's capacity never exceeds
  /// the cap.
  void EnsureCap(int k) const;
  /// Refills top_ to min(size(), top_cap_) keys by selection (const:
  /// top_ is a cache).
  void EnsureTop() const;
  /// Offers `key` (in by_id_, not in top_) to the prefix: sorted-inserts
  /// it if it ranks inside, or if no other key is untracked and there is
  /// room, displacing the last key when full.
  void TopInsert(const Key& key) const;
  /// Removes `key` from top_ if present.
  void TopErase(const Key& key) const;

  FlatIdMap<Slot> by_id_;
  /// The m nearest (distance, id) keys, ascending, for some
  /// m <= min(size(), top_cap_); every other key ranks after the last.
  mutable std::vector<Key> top_;
  mutable int top_cap_ = kTopCap;
};

}  // namespace cknn

#endif  // CKNN_CORE_TOP_K_H_
