#ifndef GPUDB_CORE_SELECTION_H_
#define GPUDB_CORE_SELECTION_H_

#include <cstdint>
#include <vector>

#include "src/common/result.h"
#include "src/core/eval_cnf.h"
#include "src/gpu/device.h"

namespace gpudb {
namespace core {

/// \brief Marks every record in the viewport as selected (the WHERE-less
/// query): clears stencil to 1 and reports the full record count.
[[nodiscard]] Result<StencilSelection> SelectAll(gpu::Device* device);

/// \brief Materializes the selection held in the stencil buffer as a 0/1
/// bitmap over the first `num_records` records. Fails with OutOfRange when
/// `num_records` exceeds the viewport: no clear or pass reaches past it.
///
/// The paper's algorithms deliberately never read results back (counts come
/// from occlusion queries); materialization is what a downstream SELECT
/// needs, and is charged as a GPU->CPU stencil readback.
[[nodiscard]] Result<std::vector<uint8_t>> SelectionToBitmap(gpu::Device* device,
                                               const StencilSelection& sel,
                                               uint64_t num_records);

/// \brief Materializes the selection as sorted row ids.
[[nodiscard]] Result<std::vector<uint32_t>> SelectionToRowIds(gpu::Device* device,
                                                const StencilSelection& sel,
                                                uint64_t num_records);

}  // namespace core
}  // namespace gpudb

#endif  // GPUDB_CORE_SELECTION_H_
