#include "src/core/semilinear.h"

#include "src/core/state_guard.h"
#include "src/gpu/fragment_program.h"

namespace gpudb {
namespace core {

SemilinearQuery SemilinearQuery::AttrCompare(int lhs_channel,
                                             gpu::CompareOp op,
                                             int rhs_channel) {
  SemilinearQuery q;
  q.weights[lhs_channel] = 1.0f;
  q.weights[rhs_channel] = -1.0f;
  q.op = op;
  q.b = 0.0f;
  return q;
}

Status SemilinearQuad(gpu::Device* device, gpu::TextureId texture,
                      const SemilinearQuery& query) {
  GPUDB_RETURN_NOT_OK(device->BindTexture(texture));
  const gpu::SemilinearProgram program(query.weights, query.op, query.b);
  device->UseProgram(&program);
  const Status st = device->RenderTexturedQuad();
  device->UseProgram(nullptr);
  return st;
}

namespace {

/// Routine 4.2's selection state around one quad drawn by `render`: every
/// test off but the stencil test, which stamps 1 into a cleared stencil
/// wherever a fragment survives the program's KILL, with an occlusion
/// query counting the survivors. The query ends even when the render
/// fails, so the device stays usable.
template <typename Render>
Result<uint64_t> SelectSurvivors(gpu::Device* device, Render&& render) {
  StateGuard guard(device);
  device->ClearStencil(0);
  device->SetAlphaTest(false, gpu::CompareOp::kAlways, 0.0f);
  device->SetDepthTest(false, gpu::CompareOp::kAlways);
  device->SetDepthBoundsTest(false);
  device->SetColorWriteMask(false);
  device->SetStencilTest(true, gpu::CompareOp::kAlways, /*ref=*/1);
  device->SetStencilOp(gpu::StencilOp::kKeep, gpu::StencilOp::kKeep,
                       gpu::StencilOp::kReplace);
  GPUDB_RETURN_NOT_OK(device->BeginOcclusionQuery());
  const Status rendered = render();
  Result<uint64_t> count = device->EndOcclusionQuery();
  GPUDB_RETURN_NOT_OK(rendered);
  return count;
}

}  // namespace

Result<uint64_t> SemilinearSelect(gpu::Device* device, gpu::TextureId texture,
                                  const SemilinearQuery& query) {
  return SelectSurvivors(
      device, [&] { return SemilinearQuad(device, texture, query); });
}

Result<uint64_t> SemilinearSelectWide(gpu::Device* device,
                                      gpu::TextureId texture_a,
                                      gpu::TextureId texture_b,
                                      const std::array<float, 8>& weights,
                                      gpu::CompareOp op, float b) {
  return SelectSurvivors(device, [&]() -> Status {
    GPUDB_RETURN_NOT_OK(device->BindTextureUnit(0, texture_a));
    GPUDB_RETURN_NOT_OK(device->BindTextureUnit(1, texture_b));
    const gpu::WideSemilinearProgram program(weights, op, b);
    device->UseProgram(&program);
    const Status render = device->RenderTexturedQuad();
    device->UseProgram(nullptr);
    const Status unbind = device->UnbindTextureUnit(1);
    GPUDB_RETURN_NOT_OK(render);
    return unbind;
  });
}

}  // namespace core
}  // namespace gpudb
