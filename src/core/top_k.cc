#include "src/core/top_k.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "src/util/macros.h"

namespace cknn {

void CandidateSet::EnsureCap(int k) const {
  if (k > top_cap_) top_cap_ = k;
}

void CandidateSet::TopInsert(const Key& key) const {
  const auto cap = static_cast<std::size_t>(top_cap_);
  if (top_.size() == cap) {
    if (key >= top_.back()) return;  // Beyond the tracked range.
    top_.pop_back();
  } else if (top_.size() + 1 < by_id_.size() &&
             (top_.empty() || key > top_.back())) {
    // Beyond the prefix, where an untracked key may rank before it.
    return;
  } else if (top_.size() == top_.capacity()) {
    // Doubling, but never past the tracked range.
    top_.reserve(std::min(cap, std::max<std::size_t>(1, 2 * top_.size())));
  }
  top_.insert(std::lower_bound(top_.begin(), top_.end(), key), key);
}

void CandidateSet::TopErase(const Key& key) const {
  const auto it = std::lower_bound(top_.begin(), top_.end(), key);
  if (it != top_.end() && *it == key) top_.erase(it);
}

void CandidateSet::EnsureTop() const {
  const std::size_t target =
      std::min(by_id_.size(), static_cast<std::size_t>(top_cap_));
  if (top_.size() >= target) return;
  // Refill by selection: the untracked keys are exactly those past the
  // prefix's last key. Gather them, move the few needed to the front
  // (O(n)) and sort only those. The gathering array is one per thread and
  // reused, so top_ never holds more than the tracked range.
  thread_local std::vector<Key> keys;
  keys.clear();
  const bool all = top_.empty();
  const Key last = all ? Key{} : top_.back();
  by_id_.ForEach([&](const Slot& slot) {
    const Key key{slot.dist(), slot.id};
    if (all || key > last) keys.push_back(key);
  });
  CKNN_DCHECK(keys.size() == by_id_.size() - top_.size());
  const auto fill =
      keys.begin() + static_cast<std::ptrdiff_t>(target - top_.size());
  std::nth_element(keys.begin(), fill, keys.end());
  std::sort(keys.begin(), fill);
  top_.reserve(target);
  top_.insert(top_.end(), keys.begin(), fill);
  // A rare huge set must not pin its gathering array on the thread.
  if (keys.capacity() > kMaxKeptScratch) std::vector<Key>().swap(keys);
}

bool CandidateSet::Offer(ObjectId id, double dist) {
  CKNN_DCHECK(!std::isnan(dist));
  const auto [slot, inserted] = by_id_.Insert(Slot(id, dist));
  if (inserted) {
    TopInsert(Key{dist, id});
    return true;
  }
  const double old = slot->dist();
  if (dist >= old) return false;
  slot->set_dist(dist);
  TopErase(Key{old, id});
  TopInsert(Key{dist, id});
  return true;
}

void CandidateSet::Set(ObjectId id, double dist) {
  CKNN_DCHECK(!std::isnan(dist));
  const auto [slot, inserted] = by_id_.Insert(Slot(id, dist));
  if (inserted) {
    TopInsert(Key{dist, id});
    return;
  }
  const double old = slot->dist();
  if (dist == old) return;
  slot->set_dist(dist);
  // A raised key that falls past the prefix leaves it shorter; the next
  // ranked read that needs the missing ranks refills it.
  TopErase(Key{old, id});
  TopInsert(Key{dist, id});
}

std::optional<double> CandidateSet::Remove(ObjectId id) {
  Slot* slot = by_id_.Find(id);
  if (slot == nullptr) return std::nullopt;
  const double dist = slot->dist();
  TopErase(Key{dist, id});
  by_id_.Erase(slot);
  return dist;
}

std::optional<double> CandidateSet::DistanceOf(ObjectId id) const {
  const Slot* slot = by_id_.Find(id);
  if (slot == nullptr) return std::nullopt;
  return slot->dist();
}

double CandidateSet::KthDist(int k) const {
  CKNN_DCHECK(k >= 1);
  const auto rank = static_cast<std::size_t>(k);
  if (by_id_.size() < rank) return kInfDist;
  EnsureCap(k);
  if (top_.size() < rank) EnsureTop();
  return top_[rank - 1].first;
}

std::vector<Neighbor> CandidateSet::TopK(int k) const {
  CKNN_DCHECK(k >= 1);
  EnsureCap(k);
  const std::size_t n = std::min(static_cast<std::size_t>(k), by_id_.size());
  if (top_.size() < n) EnsureTop();
  std::vector<Neighbor> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(Neighbor{top_[i].second, top_[i].first});
  }
  return out;
}

std::vector<Neighbor> CandidateSet::All() const {
  std::vector<Key> keys;
  keys.reserve(by_id_.size());
  by_id_.ForEach(
      [&](const Slot& slot) { keys.push_back(Key{slot.dist(), slot.id}); });
  std::sort(keys.begin(), keys.end());
  std::vector<Neighbor> out;
  out.reserve(keys.size());
  for (const Key& key : keys) {
    out.push_back(Neighbor{key.second, key.first});
  }
  return out;
}

void CandidateSet::PruneBeyond(double bound) {
  by_id_.EraseIf([bound](const Slot& slot) { return slot.dist() > bound; });
  while (!top_.empty() && top_.back().first > bound) top_.pop_back();
}

void CandidateSet::Clear() {
  by_id_.Clear();
  top_.clear();
}

std::size_t CandidateSet::MemoryBytes() const {
  return by_id_.MemoryBytes() + top_.capacity() * sizeof(Key);
}

}  // namespace cknn
