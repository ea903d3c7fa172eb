#ifndef CKNN_UTIL_FLAT_ID_MAP_H_
#define CKNN_UTIL_FLAT_ID_MAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace cknn {

/// \brief Open-addressing map from an integer id to a slot, stored in one
/// flat array: linear probing, Fibonacci hashing, backward-shift erase.
///
/// The slot type carries its own key and its own vacancy mark, so every
/// key value is usable (no id is reserved as a sentinel) and a slot costs
/// only its payload. `Slot` must provide:
///  * a default constructor that makes a vacant slot,
///  * `bool vacant() const`,
///  * `key() const`, an unsigned integer of at most 64 bits.
///
/// There is no allocation per entry and a lookup touches one run of
/// adjacent slots. Memory follows the live entries for any id pattern: the
/// array grows (doubling) when an insert would pass 3/4 load and halves
/// when an erase leaves it below 1/8, never below `kMinCapacity` slots. An
/// empty map holds no array at all until its first insert; `Clear` keeps
/// the capacity for reuse.
///
/// Iteration (`ForEach`) walks the array, so its order is a deterministic
/// function of the operation history but otherwise unspecified.
template <typename Slot>
class FlatIdMap {
 public:
  using Key = decltype(std::declval<const Slot&>().key());

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Slot holding `key`, or nullptr. Valid until the map next inserts or
  /// erases.
  Slot* Find(Key key) {
    if (slots_.empty()) return nullptr;
    Slot& slot = slots_[Probe(key)];
    return slot.vacant() ? nullptr : &slot;
  }
  const Slot* Find(Key key) const {
    return const_cast<FlatIdMap*>(this)->Find(key);
  }

  /// Stores `slot` unless its key is present. Returns the slot holding the
  /// key and whether `slot` was stored. A present key never grows the map.
  std::pair<Slot*, bool> Insert(const Slot& slot) {
    std::size_t i = slots_.empty() ? 0 : Probe(slot.key());
    if (!slots_.empty() && !slots_[i].vacant()) return {&slots_[i], false};
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      Rehash(std::max(kMinCapacity, slots_.size() * 2));
      i = Probe(slot.key());
    }
    slots_[i] = slot;
    ++size_;
    return {&slots_[i], true};
  }

  /// Erases the occupied slot `slot` (from Find or Insert), shrinking the
  /// array if it falls below 1/8 load.
  void Erase(Slot* slot) {
    EraseAt(static_cast<std::size_t>(slot - slots_.data()));
    Shrink();
  }

  /// Erases every slot for which `pred(slot)` holds, then shrinks once.
  /// `pred` may be called more than once on a slot it keeps.
  template <typename Pred>
  void EraseIf(Pred&& pred) {
    // Backward shift only moves a slot to a lower index in its probe run,
    // so re-testing index i after an erase sees every slot: one that
    // arrives at i from past the array's end (a wrapped run) was already
    // kept once.
    for (std::size_t i = 0; i < slots_.size();) {
      if (!slots_[i].vacant() && pred(slots_[i])) {
        EraseAt(i);
      } else {
        ++i;
      }
    }
    Shrink();
  }

  /// Vacates every slot, keeping the capacity.
  void Clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  }

  /// Calls `f(slot)` for every occupied slot, in array order.
  template <typename F>
  void ForEach(F&& f) const {
    for (const Slot& slot : slots_) {
      if (!slot.vacant()) f(slot);
    }
  }

  /// As ForEach, for `f(Slot&)`; `f` may change a slot's payload but not
  /// its key or vacancy.
  template <typename F>
  void ForEachMutable(F&& f) {
    for (Slot& slot : slots_) {
      if (!slot.vacant()) f(slot);
    }
  }

  /// Heap footprint: the slot array.
  std::size_t MemoryBytes() const { return slots_.capacity() * sizeof(Slot); }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  /// Home slot of `key` (needs a non-empty array).
  std::size_t Home(Key key) const {
    return static_cast<std::size_t>(
        (std::uint64_t{key} * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// Slot holding `key`, or the vacant slot where it would go.
  std::size_t Probe(Key key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = Home(key);
    while (!slots_[i].vacant() && slots_[i].key() != key) i = (i + 1) & mask;
    return i;
  }

  /// Re-inserts every slot into `capacity` (a power of two) slots.
  void Rehash(std::size_t capacity) {
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    shift_ = 64;
    for (std::size_t c = capacity; c > 1; c >>= 1) --shift_;
    for (const Slot& slot : old) {
      if (!slot.vacant()) slots_[Probe(slot.key())] = slot;
    }
  }

  /// Vacates slot `i`, shifting later slots of its probe run back.
  void EraseAt(std::size_t i) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = i;
    for (std::size_t j = (i + 1) & mask; !slots_[j].vacant();
         j = (j + 1) & mask) {
      // The slot at j may fill the hole unless its home lies cyclically in
      // (hole, j]: moving it before its home would hide it from Probe.
      if (((j - Home(slots_[j].key())) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

  /// Halves the array while it is below 1/8 load.
  void Shrink() {
    std::size_t capacity = slots_.size();
    while (size_ * 8 < capacity && capacity > kMinCapacity) capacity /= 2;
    if (capacity != slots_.size()) Rehash(capacity);
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  /// 64 - log2(slots_.size()).
  unsigned shift_ = 64;
};

}  // namespace cknn

#endif  // CKNN_UTIL_FLAT_ID_MAP_H_
