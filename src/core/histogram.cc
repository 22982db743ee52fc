#include "src/core/histogram.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/core/kth_largest.h"
#include "src/core/state_guard.h"

namespace gpudb {
namespace core {

namespace {

Status ValidateHistogramArgs(double low, double high, int buckets) {
  if (!(low < high)) {
    return Status::InvalidArgument("histogram requires low < high");
  }
  if (buckets < 1 || buckets > 4096) {
    return Status::InvalidArgument("bucket count must be in [1, 4096], got " +
                                   std::to_string(buckets));
  }
  return Status::OK();
}

}  // namespace

Result<Histogram> GpuHistogram(gpu::Device* device,
                               const AttributeBinding& attr, double low,
                               double high, int buckets) {
  GPUDB_RETURN_NOT_OK(ValidateHistogramArgs(low, high, buckets));
  GPUDB_RETURN_NOT_OK(CopyToDepth(device, attr));
  StateGuard guard(device);
  device->SetAlphaTest(false, gpu::CompareOp::kAlways, 0.0f);
  device->SetStencilTest(false, gpu::CompareOp::kAlways, 0);

  Histogram hist;
  hist.low = low;
  hist.high = high;
  hist.counts.assign(buckets, 0);

  // Cumulative counts at each bucket edge; one comparison pass per edge.
  std::vector<uint64_t> ge(buckets + 1, 0);
  for (int i = 0; i <= buckets; ++i) {
    // Deadline check between per-edge passes (lint rule R2).
    GPUDB_RETURN_NOT_OK(device->CheckInterrupt());
    const double edge = hist.low + hist.BucketWidth() * i;
    // The final edge uses GREATER so the last bucket includes `high`.
    const gpu::CompareOp op = (i == buckets) ? gpu::CompareOp::kGreater
                                             : gpu::CompareOp::kGreaterEqual;
    GPUDB_ASSIGN_OR_RETURN(ge[i],
                           CompareCount(device, op, edge, attr.encoding));
  }
  for (int i = 0; i < buckets; ++i) {
    if (ge[i] < ge[i + 1]) {
      return Status::Internal("non-monotonic cumulative counts");
    }
    hist.counts[i] = ge[i] - ge[i + 1];
  }
  return hist;
}

Result<Histogram> CpuHistogram(const std::vector<float>& values, double low,
                               double high, int buckets) {
  GPUDB_RETURN_NOT_OK(ValidateHistogramArgs(low, high, buckets));
  Histogram hist;
  hist.low = low;
  hist.high = high;
  hist.counts.assign(buckets, 0);
  const double width = hist.BucketWidth();
  for (float v : values) {
    if (v < low || v > high) continue;
    int idx = static_cast<int>((static_cast<double>(v) - low) / width);
    idx = std::clamp(idx, 0, buckets - 1);
    // Guard against floating rounding at bucket edges: make the index
    // consistent with the half-open [edge(i), edge(i+1)) definition.
    while (idx > 0 && static_cast<double>(v) < hist.Edge(idx)) --idx;
    while (idx < buckets - 1 && static_cast<double>(v) >= hist.Edge(idx + 1)) {
      ++idx;
    }
    ++hist.counts[idx];
  }
  return hist;
}

Result<std::vector<uint32_t>> GpuQuantiles(gpu::Device* device,
                                           const AttributeBinding& attr,
                                           int bit_width, int q) {
  if (q < 1 || q > 4096) {
    return Status::InvalidArgument("quantile count must be in [1, 4096]");
  }
  const uint64_t n = device->viewport_pixels();
  std::vector<uint64_t> ks(q);
  for (int i = 0; i < q; ++i) {
    // (i+1)*n/q-th smallest == (n - that + 1)-th largest.
    const uint64_t k_smallest =
        (static_cast<uint64_t>(i + 1) * n + q - 1) / q;
    ks[i] = n - k_smallest + 1;
  }
  return KthLargestBatch(device, attr, bit_width, ks);
}

Result<double> EstimateEquiJoinSize(const Histogram& a, const Histogram& b) {
  if (a.buckets() != b.buckets() || a.low != b.low || a.high != b.high) {
    return Status::InvalidArgument(
        "join estimation requires identical bucketing");
  }
  const double distinct_per_bucket = std::max(1.0, a.BucketWidth());
  double size = 0;
  for (int i = 0; i < a.buckets(); ++i) {
    size += static_cast<double>(a.counts[i]) *
            static_cast<double>(b.counts[i]) / distinct_per_bucket;
  }
  return size;
}

}  // namespace core
}  // namespace gpudb
