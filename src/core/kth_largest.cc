#include "src/core/kth_largest.h"

#include <string>

#include "src/common/bit_util.h"
#include "src/core/op_span.h"
#include "src/core/state_guard.h"

namespace gpudb {
namespace core {

namespace {

Status ValidateBitWidth(int bit_width) {
  if (bit_width < 1 || bit_width > gpu::kDepthBits) {
    return Status::InvalidArgument("bit_width must be in [1," +
                                   std::to_string(gpu::kDepthBits) +
                                   "], got " + std::to_string(bit_width));
  }
  return Status::OK();
}

/// Number of records the statistic ranges over: the selection size if one is
/// active, else the whole viewport.
uint64_t ValidCount(const gpu::Device& device, const KthOptions& options) {
  return options.selection.has_value() ? options.selection->count
                                       : device.viewport_pixels();
}

}  // namespace

Result<uint32_t> KthLargest(gpu::Device* device, const AttributeBinding& attr,
                            int bit_width, uint64_t k,
                            const KthOptions& options) {
  GPUDB_RETURN_NOT_OK(ValidateBitWidth(bit_width));
  const uint64_t n = ValidCount(*device, options);
  if (k == 0 || k > n) {
    return Status::OutOfRange("k=" + std::to_string(k) +
                              " out of range for " + std::to_string(n) +
                              " records");
  }
  GpuOpSpan op("KthLargest", device);
  op.AddTag("k", k);
  op.AddTag("bit_width", bit_width);
  op.AddTag("records", n);

  // One copy, then bit_width comparison passes with depth writes disabled.
  GPUDB_RETURN_NOT_OK(CopyToDepth(device, attr));
  StateGuard guard(device);
  device->SetAlphaTest(false, gpu::CompareOp::kAlways, 0.0f);
  if (options.selection.has_value()) {
    device->SetStencilTest(true, gpu::CompareOp::kEqual,
                           options.selection->valid_value);
    device->SetStencilOp(gpu::StencilOp::kKeep, gpu::StencilOp::kKeep,
                         gpu::StencilOp::kKeep);
  } else {
    device->SetStencilTest(false, gpu::CompareOp::kAlways, 0);
  }

  uint64_t x = 0;
  for (int i = bit_width - 1; i >= 0; --i) {
    // Deadline check between binary-search passes (the per-pass
    // device check would also catch it; this keeps the operator loop
    // responsive even if a pass is skipped).
    GPUDB_RETURN_NOT_OK(device->CheckInterrupt());
    const uint64_t tentative = x + bit_util::PowerOfTwo(i);
    GPUDB_ASSIGN_OR_RETURN(
        uint64_t count,
        CompareCount(device, gpu::CompareOp::kGreaterEqual,
                     static_cast<double>(tentative), attr.encoding));
    // Lemma 1: count > k-1 means the tentative value is still <= v_k.
    if (count > k - 1) {
      x = tentative;
    }
  }
  return static_cast<uint32_t>(x);
}

Result<std::vector<uint32_t>> KthLargestBatch(gpu::Device* device,
                                              const AttributeBinding& attr,
                                              int bit_width,
                                              const std::vector<uint64_t>& ks,
                                              const KthOptions& options) {
  GPUDB_RETURN_NOT_OK(ValidateBitWidth(bit_width));
  if (ks.empty()) {
    return Status::InvalidArgument("KthLargestBatch requires at least one k");
  }
  const uint64_t n = ValidCount(*device, options);
  for (uint64_t k : ks) {
    if (k == 0 || k > n) {
      return Status::OutOfRange("k=" + std::to_string(k) +
                                " out of range for " + std::to_string(n) +
                                " records");
    }
  }

  GpuOpSpan op("KthLargestBatch", device);
  op.AddTag("batch", ks.size());
  op.AddTag("bit_width", bit_width);
  op.AddTag("records", n);

  // One shared copy; the attribute survives every comparison pass because
  // depth writes are masked off.
  GPUDB_RETURN_NOT_OK(CopyToDepth(device, attr));
  StateGuard guard(device);
  device->SetAlphaTest(false, gpu::CompareOp::kAlways, 0.0f);
  if (options.selection.has_value()) {
    device->SetStencilTest(true, gpu::CompareOp::kEqual,
                           options.selection->valid_value);
    device->SetStencilOp(gpu::StencilOp::kKeep, gpu::StencilOp::kKeep,
                         gpu::StencilOp::kKeep);
  } else {
    device->SetStencilTest(false, gpu::CompareOp::kAlways, 0);
  }

  std::vector<uint32_t> results;
  results.reserve(ks.size());
  for (uint64_t k : ks) {
    uint64_t x = 0;
    for (int i = bit_width - 1; i >= 0; --i) {
      GPUDB_RETURN_NOT_OK(device->CheckInterrupt());
      const uint64_t tentative = x + bit_util::PowerOfTwo(i);
      GPUDB_ASSIGN_OR_RETURN(
          uint64_t count,
          CompareCount(device, gpu::CompareOp::kGreaterEqual,
                       static_cast<double>(tentative), attr.encoding));
      if (count > k - 1) x = tentative;
    }
    results.push_back(static_cast<uint32_t>(x));
  }
  return results;
}

Result<uint32_t> KthSmallest(gpu::Device* device, const AttributeBinding& attr,
                             int bit_width, uint64_t k,
                             const KthOptions& options) {
  const uint64_t n = ValidCount(*device, options);
  if (k == 0 || k > n) {
    return Status::OutOfRange("k=" + std::to_string(k) +
                              " out of range for " + std::to_string(n) +
                              " records");
  }
  return KthLargest(device, attr, bit_width, n - k + 1, options);
}

Result<uint32_t> KthSmallestDirect(gpu::Device* device,
                                   const AttributeBinding& attr,
                                   int bit_width, uint64_t k,
                                   const KthOptions& options) {
  GPUDB_RETURN_NOT_OK(ValidateBitWidth(bit_width));
  const uint64_t n = ValidCount(*device, options);
  if (k == 0 || k > n) {
    return Status::OutOfRange("k=" + std::to_string(k) +
                              " out of range for " + std::to_string(n) +
                              " records");
  }
  GPUDB_RETURN_NOT_OK(CopyToDepth(device, attr));
  StateGuard guard(device);
  device->SetAlphaTest(false, gpu::CompareOp::kAlways, 0.0f);
  if (options.selection.has_value()) {
    device->SetStencilTest(true, gpu::CompareOp::kEqual,
                           options.selection->valid_value);
    device->SetStencilOp(gpu::StencilOp::kKeep, gpu::StencilOp::kKeep,
                         gpu::StencilOp::kKeep);
  } else {
    device->SetStencilTest(false, gpu::CompareOp::kAlways, 0);
  }

  uint64_t x = 0;
  for (int i = bit_width - 1; i >= 0; --i) {
    GPUDB_RETURN_NOT_OK(device->CheckInterrupt());
    const uint64_t tentative = x + bit_util::PowerOfTwo(i);
    // Inverted comparison (Lemma 1's dual): with count = #{v < m},
    // count <= k-1 means at most k-1 values lie below m, so the k-th
    // smallest is still >= m and the bit can be kept.
    GPUDB_ASSIGN_OR_RETURN(
        uint64_t count,
        CompareCount(device, gpu::CompareOp::kLess,
                     static_cast<double>(tentative), attr.encoding));
    if (count <= k - 1) {
      x = tentative;
    }
  }
  return static_cast<uint32_t>(x);
}

Result<uint32_t> MaxValue(gpu::Device* device, const AttributeBinding& attr,
                          int bit_width, const KthOptions& options) {
  return KthLargest(device, attr, bit_width, 1, options);
}

Result<uint32_t> MinValue(gpu::Device* device, const AttributeBinding& attr,
                          int bit_width, const KthOptions& options) {
  return KthSmallest(device, attr, bit_width, 1, options);
}

Result<uint32_t> MedianValue(gpu::Device* device, const AttributeBinding& attr,
                             int bit_width, const KthOptions& options) {
  const uint64_t n = ValidCount(*device, options);
  if (n == 0) {
    return Status::InvalidArgument("median over empty selection");
  }
  return KthSmallest(device, attr, bit_width, (n + 1) / 2, options);
}

}  // namespace core
}  // namespace gpudb
