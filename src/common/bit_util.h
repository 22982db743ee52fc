#ifndef GPUDB_COMMON_BIT_UTIL_H_
#define GPUDB_COMMON_BIT_UTIL_H_

#include <bit>
#include <cstdint>

namespace gpudb {
namespace bit_util {

/// Number of bits needed to represent `v` (0 for v == 0).
///
/// This is the paper's `b_max` for a column: KthLargest (Routine 4.5) and
/// Accumulator (Routine 4.6) both run one rendering pass per bit, so the
/// pass count of those algorithms equals BitWidth(max value).
inline int BitWidth(uint64_t v) { return 64 - std::countl_zero(v); }

/// True iff bit `i` (0 = LSB) of `v` is set.
inline bool TestBit(uint64_t v, int i) { return (v >> i) & 1u; }

/// 2^i as uint64.
inline uint64_t PowerOfTwo(int i) { return uint64_t{1} << i; }

/// Integer ceil(a / b) for b > 0.
inline uint64_t CeilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

}  // namespace bit_util
}  // namespace gpudb

#endif  // GPUDB_COMMON_BIT_UTIL_H_
