#ifndef GPUDB_GPU_PLANE_CACHE_H_
#define GPUDB_GPU_PLANE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace gpudb {
namespace gpu {

/// \brief Identity of one cached depth plane (DESIGN.md §14).
///
/// A cached plane is the depth buffer exactly as CopyToDepth leaves it for
/// one attribute, so the key must pin down everything that determines those
/// bits: the table (registered tables never change, so its name suffices),
/// the column, the normalization (scale/offset of the DepthEncoding -- two
/// encodings of the same column quantize differently), and the viewport
/// pixel count the copy covered.
struct PlaneKey {
  std::string table;
  int column = -1;
  double scale = 1.0;
  double offset = 0.0;
  uint64_t viewport_pixels = 0;

  bool operator==(const PlaneKey&) const = default;
};

/// \brief LRU cache of quantized depth planes for hot columns.
///
/// Owned by gpu::Device and charged against the same simulated video-memory
/// budget as textures, but strictly lower priority: the device evicts cached
/// planes before it evicts any texture, and refuses to insert a plane that
/// would require evicting a texture. The cache itself is policy-free storage
/// -- budget arithmetic and metrics live in the device.
///
/// Entries are stamped with a logical clock on insert and lookup; EvictLru
/// removes the least-recently-stamped entry. A handful of hot columns is the
/// expected population, so storage is a flat vector with linear search --
/// deterministic and cheap at that size.
///
/// Deliberately unannotated (no mutex, no GUARDED_BY): the cache is
/// Device-serialized state. Every caller already holds the device
/// exclusively -- single-context dispatch in the classic engine, an
/// exclusive DevicePool lease in the pooled one -- so a mutex here would
/// add a lock at device level (DESIGN.md §12) protecting nothing. If the
/// cache ever outlives that ownership model, annotate before you mutex
/// (EXTENDING.md).
class PlaneCache {
 public:
  /// Returns the cached plane for `key`, or nullptr. A hit refreshes the
  /// entry's LRU stamp. The pointer is invalidated by any mutating call.
  const std::vector<uint32_t>* Lookup(const PlaneKey& key);

  /// Whether a plane for `key` is cached. Unlike Lookup, does not refresh
  /// the entry's LRU stamp (safe for assertions and introspection).
  bool Contains(const PlaneKey& key) const;

  /// Inserts (or replaces) the plane for `key` and stamps it most recent.
  void Insert(const PlaneKey& key, std::vector<uint32_t> plane);

  /// Evicts the least-recently-used entry. Returns false when empty.
  bool EvictLru();

  /// Total bytes held (4 bytes per cached depth texel).
  uint64_t bytes() const { return bytes_; }
  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    PlaneKey key;
    std::vector<uint32_t> plane;
    uint64_t last_used = 0;
  };

  std::vector<Entry> entries_;
  uint64_t bytes_ = 0;
  uint64_t clock_ = 0;
};

}  // namespace gpu
}  // namespace gpudb

#endif  // GPUDB_GPU_PLANE_CACHE_H_
