#include "src/gpu/plane_cache.h"

#include <algorithm>
#include <utility>

namespace gpudb {
namespace gpu {

namespace {

uint64_t PlaneBytes(const std::vector<uint32_t>& plane) {
  return static_cast<uint64_t>(plane.size()) * sizeof(uint32_t);
}

}  // namespace

const std::vector<uint32_t>* PlaneCache::Lookup(const PlaneKey& key) {
  for (Entry& e : entries_) {
    if (e.key == key) {
      e.last_used = ++clock_;
      return &e.plane;
    }
  }
  return nullptr;
}

bool PlaneCache::Contains(const PlaneKey& key) const {
  for (const Entry& e : entries_) {
    if (e.key == key) return true;
  }
  return false;
}

void PlaneCache::Insert(const PlaneKey& key, std::vector<uint32_t> plane) {
  for (Entry& e : entries_) {
    if (e.key == key) {
      bytes_ -= PlaneBytes(e.plane);
      e.plane = std::move(plane);
      bytes_ += PlaneBytes(e.plane);
      e.last_used = ++clock_;
      return;
    }
  }
  bytes_ += PlaneBytes(plane);
  entries_.push_back(Entry{key, std::move(plane), ++clock_});
}

bool PlaneCache::EvictLru() {
  if (entries_.empty()) return false;
  auto victim = std::min_element(
      entries_.begin(), entries_.end(),
      [](const Entry& a, const Entry& b) { return a.last_used < b.last_used; });
  bytes_ -= PlaneBytes(victim->plane);
  entries_.erase(victim);
  return true;
}

}  // namespace gpu
}  // namespace gpudb
