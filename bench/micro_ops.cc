// Google-benchmark microbenchmarks of the pipeline simulator and the real
// CPU baselines on this machine. These measure the *simulator's* wall-clock
// throughput (useful when hacking on the Device hot loop), not 2004 GPU
// performance -- the paper-shape numbers come from the fig* binaries.

#include <algorithm>
#include <cstring>

#include <benchmark/benchmark.h>

#include "src/core/accumulator.h"
#include "src/core/bitonic_sort.h"
#include "src/core/compare.h"
#include "src/core/count.h"
#include "src/core/executor.h"
#include "src/core/kth_largest.h"
#include "src/core/pool_executor.h"
#include "src/core/range.h"
#include "src/core/semilinear.h"
#include "src/cpu/aggregate.h"
#include "src/cpu/quickselect.h"
#include "src/cpu/scan.h"
#include "src/common/random.h"
#include "src/db/datagen.h"
#include "src/db/sharding.h"
#include "src/gpu/device.h"
#include "src/gpu/device_pool.h"
#include "src/gpu/fragment_program.h"
#include "src/predicate/expr.h"

namespace gpudb {
namespace {

const db::Table& BenchTable() {
  static const db::Table* table =
      new db::Table(db::MakeTcpIpTable(100'000).ValueOrDie());
  return *table;
}

core::AttributeBinding Bind(gpu::Device* device, size_t n) {
  const db::Column& column = BenchTable().column(0);
  std::vector<float> values(column.values().begin(),
                            column.values().begin() + n);
  auto tex = gpu::Texture::FromColumns({&values}, 1000);
  auto id = device->UploadTexture(std::move(tex).ValueOrDie());
  (void)device->SetViewport(n);
  core::AttributeBinding b;
  b.texture = id.ValueOrDie();
  b.channel = 0;
  b.encoding = core::DepthEncoding::ExactInt24();
  return b;
}

void BM_SimCopyToDepth(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  gpu::Device device(1000, 100);
  core::AttributeBinding attr = Bind(&device, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::CopyToDepth(&device, attr));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimCopyToDepth)->Arg(10'000)->Arg(100'000);

void BM_SimPredicateSelect(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  gpu::Device device(1000, 100);
  core::AttributeBinding attr = Bind(&device, n);
  for (auto _ : state) {
    auto r = core::CompareSelect(&device, attr, gpu::CompareOp::kGreater,
                                 10000.0);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimPredicateSelect)->Arg(10'000)->Arg(100'000);

void BM_SimRangeSelect(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  gpu::Device device(1000, 100);
  core::AttributeBinding attr = Bind(&device, n);
  for (auto _ : state) {
    auto r = core::RangeSelect(&device, attr, 1000.0, 100000.0);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimRangeSelect)->Arg(10'000)->Arg(100'000);

void BM_SimKthLargest(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  gpu::Device device(1000, 100);
  core::AttributeBinding attr = Bind(&device, n);
  const int bits = BenchTable().column(0).bit_width();
  for (auto _ : state) {
    auto r = core::KthLargest(&device, attr, bits, n / 2);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimKthLargest)->Arg(10'000)->Arg(100'000);

void BM_SimAccumulate(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  gpu::Device device(1000, 100);
  core::AttributeBinding attr = Bind(&device, n);
  const int bits = BenchTable().column(0).bit_width();
  for (auto _ : state) {
    auto r = core::Accumulate(&device, attr.texture, 0, bits);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimAccumulate)->Arg(10'000)->Arg(100'000);

void BM_SimBitonicSort(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto& col = BenchTable().column(0).values();
  std::vector<float> values(col.begin(), col.begin() + n);
  for (auto _ : state) {
    gpu::Device device(128, 128);
    benchmark::DoNotOptimize(core::BitonicSort(&device, values));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimBitonicSort)->Arg(1024)->Arg(4096);

void BM_SimSemilinearSelect(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  gpu::Device device(1000, 100);
  core::AttributeBinding attr = Bind(&device, n);
  core::SemilinearQuery query;
  query.weights = {1.0f, 0, 0, 0};
  query.op = gpu::CompareOp::kGreaterEqual;
  query.b = 10000.0f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::SemilinearSelect(&device, attr.texture, query));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimSemilinearSelect)->Arg(10'000)->Arg(100'000);

// --- One pass per row kernel shape ----------------------------------------
//
// A side x side viewport (1000 = 1M fragments, 64 = 4K) over a 4-channel
// texture of 19-bit integers, with a random ~50% stencil selection (value
// 1), one pixel-engine worker. Each row times one pass of a shape the
// operators issue. BM_Pass_Stream is the same-run memory baseline: it reads
// the same texel channel and stencil bytes, so a shape's ns/fragment
// (1e9 / items_per_second) can be set against memory speed.

constexpr int kChannel = 2;

struct PassBench {
  explicit PassBench(benchmark::State& state)
      : side(static_cast<uint32_t>(state.range(0))),
        pixels(uint64_t{side} * side),
        device(side, side) {
    Random rng(1004);
    std::vector<std::vector<float>> columns(4, std::vector<float>(pixels));
    for (auto& column : columns) {
      for (float& v : column) v = static_cast<float>(rng.NextUint64(1 << 19));
    }
    auto tex = gpu::Texture::FromColumns(
        {&columns[0], &columns[1], &columns[2], &columns[3]}, side);
    attr.texture = device.UploadTexture(std::move(tex).ValueOrDie())
                       .ValueOrDie();
    attr.channel = kChannel;
    attr.encoding = core::DepthEncoding::ExactInt24();
    (void)device.SetWorkerThreads(1);
    selection.resize(pixels);
    for (uint8_t& s : selection) s = static_cast<uint8_t>(rng.NextUint64(2));
    RestoreSelection();
  }

  void RestoreSelection() {
    std::copy(selection.begin(), selection.end(),
              device.framebuffer().stencil_data());
  }

  uint32_t side;
  uint64_t pixels;
  gpu::Device device;
  core::AttributeBinding attr;
  std::vector<uint8_t> selection;
};

void PassRows(benchmark::internal::Benchmark* b) {
  b->Arg(1000)->Arg(64)->Unit(benchmark::kMicrosecond);
}

void BM_Pass_Stream(benchmark::State& state) {
  PassBench p(state);
  const float* const texels =
      p.device.texture(p.attr.texture).data().data() + kChannel;
  const uint8_t* const stencil = p.device.framebuffer().stencil_data();
  for (auto _ : state) {
    // Branch-free and free of a float add chain, so memory sets the pace.
    uint64_t selected = 0;
    uint32_t digest = 0;
    for (uint64_t i = 0; i < p.pixels; ++i) {
      const uint32_t on = stencil[i] == 1 ? 1 : 0;
      uint32_t bits;
      std::memcpy(&bits, &texels[i * 4], sizeof(bits));
      selected += on;
      digest ^= bits & (0u - on);
    }
    benchmark::DoNotOptimize(selected);
    benchmark::DoNotOptimize(digest);
  }
  state.SetItemsProcessed(state.iterations() * p.pixels);
}
BENCHMARK(BM_Pass_Stream)->Apply(PassRows);

// Accumulate over a selection (Routine 4.6): a 19-bit SUM, the width of
// the TPC-H Q6 column, as one bit sweep that records 19 TestBit passes.
// Items are fragments swept, so ns/item sets it beside BM_Pass_Stream.
void BM_Pass_TestBitSweep(benchmark::State& state) {
  PassBench p(state);
  core::AccumulatorOptions options;
  options.selection = core::StencilSelection{1, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::Accumulate(&p.device, p.attr.texture, kChannel, 19, options)
            .ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * p.pixels);
}
BENCHMARK(BM_Pass_TestBitSweep)->Apply(PassRows);

void BM_Pass_CountSelected(benchmark::State& state) {
  PassBench p(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::CountSelected(&p.device, 1).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * p.pixels);
}
BENCHMARK(BM_Pass_CountSelected)->Apply(PassRows);

// One link of the planner's fused selection chain (DESIGN.md §14):
// stencil EQUAL 1 / zpass INCR around a FusedCompare pass. The pass moves
// its survivors to 2, so the selection is restored between passes.
void BM_Pass_FusedCompareChain(benchmark::State& state) {
  PassBench p(state);
  gpu::Device& d = p.device;
  d.SetStencilTest(true, gpu::CompareOp::kEqual, 1);
  d.SetStencilOp(gpu::StencilOp::kKeep, gpu::StencilOp::kKeep,
                 gpu::StencilOp::kIncr);
  for (auto _ : state) {
    (void)core::FusedComparePass(&d, p.attr, gpu::CompareOp::kLess,
                                 double{1 << 18});
    state.PauseTiming();
    p.RestoreSelection();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * p.pixels);
}
BENCHMARK(BM_Pass_FusedCompareChain)->Apply(PassRows);

// An attribute-attribute link of the selection chain, `a < b` over a
// two-channel texture (perfbench's attr_compare shape): color writes off as
// EvalCnf sets them, stencil EQUAL 1 / zpass INCR around a SemilinearFP
// pass (Routine 4.2), the selection restored between passes.
void BM_Pass_Semilinear(benchmark::State& state) {
  PassBench p(state);
  gpu::Device& d = p.device;
  const std::vector<float> a = p.device.ReadTexture(p.attr.texture, 0)
                                   .ValueOrDie();
  const std::vector<float> b = p.device.ReadTexture(p.attr.texture, 1)
                                   .ValueOrDie();
  const gpu::TextureId pair =
      d.UploadTexture(gpu::Texture::FromColumns({&a, &b}, p.side).ValueOrDie())
          .ValueOrDie();
  const core::SemilinearQuery query =
      core::SemilinearQuery::AttrCompare(0, gpu::CompareOp::kLess, 1);
  d.SetColorWriteMask(false);
  d.SetStencilTest(true, gpu::CompareOp::kEqual, 1);
  d.SetStencilOp(gpu::StencilOp::kKeep, gpu::StencilOp::kKeep,
                 gpu::StencilOp::kIncr);
  for (auto _ : state) {
    (void)core::SemilinearQuad(&d, pair, query);
    state.PauseTiming();
    p.RestoreSelection();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * p.pixels);
}
BENCHMARK(BM_Pass_Semilinear)->Apply(PassRows);

void BM_Pass_CopyToDepth(benchmark::State& state) {
  PassBench p(state);
  for (auto _ : state) {
    (void)core::CopyToDepth(&p.device, p.attr);
  }
  state.SetItemsProcessed(state.iterations() * p.pixels);
}
BENCHMARK(BM_Pass_CopyToDepth)->Apply(PassRows);

// The comparison quad behind a CopyToDepth: constant depth, counted.
void BM_Pass_CompareCount(benchmark::State& state) {
  PassBench p(state);
  (void)core::CopyToDepth(&p.device, p.attr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::CompareCount(&p.device,
                                                gpu::CompareOp::kLess,
                                                double{1 << 18},
                                                p.attr.encoding)
                                 .ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * p.pixels);
}
BENCHMARK(BM_Pass_CompareCount)->Apply(PassRows);

// A CNF bookkeeping quad: the stencil test passes everything and the
// survivors' bytes are incremented, which takes the table-driven stencil.
void BM_Pass_CompareIncrement(benchmark::State& state) {
  PassBench p(state);
  gpu::Device& d = p.device;
  (void)core::CopyToDepth(&d, p.attr);
  d.SetStencilTest(true, gpu::CompareOp::kAlways, 0);
  d.SetStencilOp(gpu::StencilOp::kKeep, gpu::StencilOp::kKeep,
                 gpu::StencilOp::kIncr);
  for (auto _ : state) {
    (void)core::CompareQuad(&d, gpu::CompareOp::kLess, double{1 << 18},
                            p.attr.encoding);
    state.PauseTiming();
    p.RestoreSelection();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * p.pixels);
}
BENCHMARK(BM_Pass_CompareIncrement)->Apply(PassRows);

// --- A small viewport on a large framebuffer --------------------------------
//
// The same one-predicate COUNT over 65,536 rows, through the Executor, on a
// 256x256 framebuffer it fills and on a 1000x1000 one, as a pool shard
// would run it. Clears stop at the viewport like passes do, so the two rows
// should read within about 1.2x of each other.
void BM_ViewportCount(benchmark::State& state) {
  static const db::Table* table =
      new db::Table(db::MakeTcpIpTable(65'536).ValueOrDie());
  const auto side = static_cast<uint32_t>(state.range(0));
  gpu::Device device(side, side);
  (void)device.SetWorkerThreads(1);
  auto exec = core::Executor::Make(&device, table).ValueOrDie();
  const predicate::ExprPtr where =
      predicate::Expr::Pred(0, gpu::CompareOp::kGreater, 10000.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec->Count(where).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(table->num_rows()));
}
BENCHMARK(BM_ViewportCount)->Arg(256)->Arg(1000)->Unit(benchmark::kMicrosecond);

// --- One pooled statement at a time ----------------------------------------
//
// perfbench pool_contended's shape: 262,144 rows in 4 shards over a 2-device
// pool of 1000x1000 frames with one pixel-engine worker each, but a single
// client. Each device runs its two shards while the other runs its own, so
// a statement costs about two shards' time, not four.
struct PoolBench {
  PoolBench()
      : table(db::MakeTcpIpTable(262'144).ValueOrDie()),
        sharded(db::ShardedTable::Make(table, 4, 2).ValueOrDie()) {
    gpu::DevicePoolOptions options;
    options.devices = 2;
    options.width = options.height = 1000;
    options.worker_threads = 1;
    pool = gpu::DevicePool::Make(options).ValueOrDie();
    exec = core::PoolExecutor::Make(pool.get(), &sharded).ValueOrDie();
  }

  /// The value of column `col` at quantile `q`.
  float Quantile(size_t col, double q) const {
    std::vector<float> values = table.column(col).values();
    const size_t at = static_cast<size_t>(q * (values.size() - 1));
    std::nth_element(values.begin(), values.begin() + at, values.end());
    return values[at];
  }

  db::Table table;
  db::ShardedTable sharded;
  std::unique_ptr<gpu::DevicePool> pool;
  std::unique_ptr<core::PoolExecutor> exec;
};

PoolBench& Pool() {
  static PoolBench* bench = new PoolBench();
  return *bench;
}

// SELECT COUNT(*) WHERE data_count > its median (count_1pred).
void BM_Pool_Count(benchmark::State& state) {
  PoolBench& p = Pool();
  const predicate::ExprPtr where = predicate::Expr::Pred(
      0, gpu::CompareOp::kGreater, p.Quantile(0, 0.5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.exec->Count(where).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(p.table.num_rows()));
}
BENCHMARK(BM_Pool_Count)->Unit(benchmark::kMicrosecond);

// SELECT MAX(data_count) WHERE flow_rate BETWEEN its 40th and 50th
// percentiles (max_between).
void BM_Pool_MaxBetween(benchmark::State& state) {
  PoolBench& p = Pool();
  const predicate::ExprPtr where = predicate::Expr::Between(
      2, p.Quantile(2, 0.4), p.Quantile(2, 0.5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        p.exec->Aggregate(core::AggregateKind::kMax, "data_count", where)
            .ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(p.table.num_rows()));
}
BENCHMARK(BM_Pool_MaxBetween)->Unit(benchmark::kMicrosecond);

void BM_CpuStdSort(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto& col = BenchTable().column(0).values();
  for (auto _ : state) {
    std::vector<float> values(col.begin(), col.begin() + n);
    std::sort(values.begin(), values.end());
    benchmark::DoNotOptimize(values.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CpuStdSort)->Arg(1024)->Arg(4096);

void BM_CpuPredicateScan(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto& col = BenchTable().column(0).values();
  std::vector<float> values(col.begin(), col.begin() + n);
  std::vector<uint8_t> mask;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cpu::PredicateScan(
        values, gpu::CompareOp::kGreater, 10000.0f, &mask));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CpuPredicateScan)->Arg(10'000)->Arg(100'000);

void BM_CpuQuickSelect(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto& col = BenchTable().column(0).values();
  std::vector<float> values(col.begin(), col.begin() + n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cpu::QuickSelectLargest(values, n / 2));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CpuQuickSelect)->Arg(10'000)->Arg(100'000);

void BM_CpuSum(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto& col = BenchTable().column(0).values();
  std::vector<float> values(col.begin(), col.begin() + n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cpu::SumInt(values));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CpuSum)->Arg(10'000)->Arg(100'000);

}  // namespace
}  // namespace gpudb
