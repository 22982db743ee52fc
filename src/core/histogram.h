#ifndef GPUDB_CORE_HISTOGRAM_H_
#define GPUDB_CORE_HISTOGRAM_H_

#include <cstdint>
#include <vector>

#include "src/common/result.h"
#include "src/core/compare.h"
#include "src/gpu/device.h"

namespace gpudb {
namespace core {

/// \brief Equi-width histogram over a value interval.
///
/// Bucket i covers [edge(i), edge(i+1)) with edge(i) = low + i*(high-low)/B,
/// except the last bucket, which also includes `high`.
struct Histogram {
  double low = 0;
  double high = 0;
  std::vector<uint64_t> counts;

  int buckets() const { return static_cast<int>(counts.size()); }
  double BucketWidth() const {
    return (high - low) / static_cast<double>(counts.size());
  }
  double Edge(int i) const {
    return low + BucketWidth() * static_cast<double>(i);
  }
};

/// \brief Builds an equi-width histogram on the GPU using cumulative
/// occlusion counts: after one CopyToDepth, bucket i's population is
/// #{x >= edge(i)} - #{x >= edge(i+1)}, each term one comparison quad with
/// an occlusion query (Routine 4.1 machinery; B+1 passes total).
///
/// This is the building block for the selectivity-estimation uses the paper
/// points at in Section 5.11 (join algorithms driven by selectivity
/// estimates [7, 10]).
///
/// Precision note: bucket edges pass through the depth encoding, so for
/// integer columns the counts are exact when every edge lands on an integer
/// (choose `high - low` divisible by `buckets`); fractional edges round to
/// the nearest depth code, the Section 6.1 precision caveat.
[[nodiscard]] Result<Histogram> GpuHistogram(gpu::Device* device,
                               const AttributeBinding& attr, double low,
                               double high, int buckets);

/// CPU reference with identical bucket semantics.
[[nodiscard]] Result<Histogram> CpuHistogram(const std::vector<float>& values, double low,
                               double high, int buckets);

/// \brief q-quantiles of an integer attribute: result[i] is the
/// ceil((i+1) * n / q)-th smallest value (so result.back() is the maximum
/// and result[q/2 - 1] the median for even q).
///
/// Computed with KthLargestBatch -- one CopyToDepth plus q bit-searches --
/// and the basis of equi-depth histograms for selectivity estimation.
[[nodiscard]] Result<std::vector<uint32_t>> GpuQuantiles(gpu::Device* device,
                                           const AttributeBinding& attr,
                                           int bit_width, int q);

/// \brief Estimated result cardinality of the equi-join A.x = B.y from two
/// histograms with identical bucketing, assuming values are uniformly spread
/// within each bucket over an integer domain:
///   sum_i  a_i * b_i / max(1, bucket_width).
[[nodiscard]] Result<double> EstimateEquiJoinSize(const Histogram& a, const Histogram& b);

}  // namespace core
}  // namespace gpudb

#endif  // GPUDB_CORE_HISTOGRAM_H_
