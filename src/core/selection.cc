#include "src/core/selection.h"

#include <string>

namespace gpudb {
namespace core {

Result<StencilSelection> SelectAll(gpu::Device* device) {
  device->ClearStencil(1);
  StencilSelection sel;
  sel.valid_value = 1;
  sel.count = device->viewport_pixels();
  return sel;
}

Result<std::vector<uint8_t>> SelectionToBitmap(gpu::Device* device,
                                               const StencilSelection& sel,
                                               uint64_t num_records) {
  // Clears and passes stop at the viewport, so stencil bytes past it are
  // stale: a bitmap may not reach beyond it.
  if (num_records > device->viewport_pixels()) {
    return Status::OutOfRange("num_records " + std::to_string(num_records) +
                              " exceeds the viewport of " +
                              std::to_string(device->viewport_pixels()) +
                              " pixels");
  }
  GPUDB_ASSIGN_OR_RETURN(const std::vector<uint8_t> stencil,
                         device->ReadStencil());
  std::vector<uint8_t> bitmap(num_records);
  for (uint64_t i = 0; i < num_records; ++i) {
    bitmap[i] = stencil[i] == sel.valid_value ? 1 : 0;
  }
  return bitmap;
}

Result<std::vector<uint32_t>> SelectionToRowIds(gpu::Device* device,
                                                const StencilSelection& sel,
                                                uint64_t num_records) {
  GPUDB_ASSIGN_OR_RETURN(std::vector<uint8_t> bitmap,
                         SelectionToBitmap(device, sel, num_records));
  std::vector<uint32_t> rows;
  rows.reserve(sel.count);
  for (uint64_t i = 0; i < bitmap.size(); ++i) {
    if (bitmap[i] != 0) rows.push_back(static_cast<uint32_t>(i));
  }
  return rows;
}

}  // namespace core
}  // namespace gpudb
