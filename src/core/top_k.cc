#include "src/core/top_k.h"

#include <algorithm>
#include <cmath>

#include "src/util/macros.h"

namespace cknn {

void CandidateSet::EnsureCap(int k) const {
  if (k <= top_cap_) return;
  top_cap_ = k;
  top_exact_ = false;
}

void CandidateSet::TopInsert(const Key& key) const {
  if (!top_exact_) return;
  if (top_.size() == static_cast<std::size_t>(top_cap_)) {
    if (key >= top_.back()) return;  // Beyond the tracked range.
    top_.pop_back();
  }
  top_.insert(std::lower_bound(top_.begin(), top_.end(), key), key);
}

bool CandidateSet::TopErase(const Key& key) const {
  if (!top_exact_) return false;
  const auto it = std::lower_bound(top_.begin(), top_.end(), key);
  if (it == top_.end() || *it != key) return false;
  top_.erase(it);
  return true;
}

void CandidateSet::EnsureTop() const {
  if (top_exact_) return;
  top_.clear();
  by_id_.ForEach([&](const Slot& slot) {
    const Key key{slot.dist(), slot.id};
    if (top_.size() == static_cast<std::size_t>(top_cap_)) {
      if (key >= top_.back()) return;
      top_.pop_back();
    }
    top_.insert(std::lower_bound(top_.begin(), top_.end(), key), key);
  });
  top_exact_ = true;
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
  // A lowered entry can only move up: drop its old key (if tracked) and
  // re-insert — exactness is preserved, untracked entries stay >= back.
  TopErase(Key{old, id});
  TopInsert(Key{dist, id});
  slot->set_dist(dist);
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
  if (dist < old) {
    TopErase(Key{old, id});
    TopInsert(Key{dist, id});
    return;
  }
  // Raised distance: a tracked entry may now rank behind an untracked one
  // we know nothing about — the array goes stale unless the whole set fits
  // in it. Raising an untracked entry keeps it untracked (still >= back).
  if (TopErase(Key{old, id})) {
    if (by_id_.size() <= static_cast<std::size_t>(top_cap_)) {
      TopInsert(Key{dist, id});
    } else {
      top_exact_ = false;
    }
  }
}

std::optional<double> CandidateSet::Remove(ObjectId id) {
  Slot* slot = by_id_.Find(id);
  if (slot == nullptr) return std::nullopt;
  const double dist = slot->dist();
  if (TopErase(Key{dist, id}) && by_id_.size() - 1 > top_.size()) {
    // An untracked entry should be promoted into the freed slot.
    top_exact_ = false;
  }
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
  if (by_id_.size() < static_cast<std::size_t>(k)) return kInfDist;
  EnsureCap(k);
  EnsureTop();
  return top_[static_cast<std::size_t>(k) - 1].first;
}

std::vector<Neighbor> CandidateSet::TopK(int k) const {
  CKNN_DCHECK(k >= 1);
  EnsureCap(k);
  EnsureTop();
  const std::size_t n = std::min(static_cast<std::size_t>(k), top_.size());
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
  if (top_exact_) {
    while (!top_.empty() && top_.back().first > bound) top_.pop_back();
    if (by_id_.size() > top_.size()) top_exact_ = false;
  }
}

void CandidateSet::Clear() {
  by_id_.Clear();
  top_.clear();
  top_exact_ = true;
}

std::size_t CandidateSet::MemoryBytes() const {
  return by_id_.MemoryBytes() + top_.capacity() * sizeof(Key);
}

}  // namespace cknn
