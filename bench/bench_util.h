#ifndef GPUDB_BENCH_BENCH_UTIL_H_
#define GPUDB_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/common/profile.h"
#include "src/common/timer.h"
#include "src/core/compare.h"
#include "src/cpu/xeon_model.h"
#include "src/db/datagen.h"
#include "src/db/table.h"
#include "src/gpu/device.h"
#include "src/gpu/perf_model.h"

namespace gpudb {
namespace bench {

/// The record-count axis used by the paper's figures (up to one million
/// records, Section 5.1).
std::vector<size_t> RecordSweep();

/// Parses the shared benchmark flags:
///   --threads=N  pixel-engine worker threads for every device the bench
///                creates (default: $GPUDB_THREADS, else hardware
///                concurrency; threading never changes results, only
///                wall-clock).
///   --profile    enable the gpuprof deep pipeline counters; PrintRow then
///                captures the per-row counter delta and BENCH_*.json rows
///                gain counter columns. Off by default: the counters are
///                compiled to no-ops so baseline numbers are unaffected.
/// Any other argument exits 2 with a usage message, so a typo never
/// silently runs the wrong configuration.
void InitBench(int argc, char** argv);

/// The worker-thread count benches run with (see InitBench).
int BenchThreads();

/// Fresh 1000x1000 device (the paper's screen/texture size) with
/// BenchThreads() pixel-engine workers.
std::unique_ptr<gpu::Device> MakeDevice();

/// The shared TCP/IP benchmark table (1M rows, generated once per process).
const db::Table& TcpIpTable();

/// First `n` values of a column.
std::vector<float> Slice(const db::Column& column, size_t n);
std::vector<uint32_t> SliceInts(const db::Column& column, size_t n);

/// Uploads the first `n` values of a column as a single-channel texture and
/// returns its exact-int binding; sets the device viewport to n.
core::AttributeBinding UploadColumn(gpu::Device* device,
                                    const db::Column& column, size_t n);

/// Value v such that the predicate `x > v` selects ~`selectivity` of the
/// first n records (e.g. 0.6 -> the paper's 60%-selectivity setups).
float ThresholdForSelectivity(const db::Column& column, size_t n,
                              double selectivity);

/// Prints the figure banner with the paper's claim for easy comparison, and
/// starts recording the figure's rows for the machine-readable JSON emitted
/// by PrintFooter.
void PrintHeader(const std::string& figure, const std::string& description,
                 const std::string& paper_claim);

/// Prints one row of "model vs measured" results. Model columns are
/// simulated 2004-hardware milliseconds (GeForce FX 5900 / dual Xeon);
/// wall columns are this machine's actual execution time of the simulator
/// and the real CPU baseline, reported for transparency.
struct ResultRow {
  std::string label;           ///< e.g. record count or k.
  /// The sub-sweep a row belongs to when one figure repeats its labels
  /// (fig05's "attrs=1".."attrs=4"); empty otherwise. (label, series) is
  /// the row's key in scripts/bench_diff.py.
  std::string series;
  double gpu_model_total_ms = 0;
  double gpu_model_compute_ms = 0;
  double cpu_model_ms = 0;
  double gpu_wall_ms = 0;      ///< simulator wall-clock (not paper-scale)
  double cpu_wall_ms = 0;      ///< real baseline wall-clock
  bool check_passed = true;    ///< GPU result cross-checked against CPU
  /// Deep pipeline counters: the global Profiler's delta since the previous
  /// PrintRow (or PrintHeader). Filled automatically by PrintRow when the
  /// bench runs with --profile; all-zero (profiled=false) otherwise.
  bool profiled = false;
  uint64_t prof_passes = 0;
  uint64_t prof_fragments = 0;
  PassProfile prof;
};

void PrintRowHeader();
void PrintRow(const ResultRow& row);

/// Leaves the Profiler counters gathered since the last PrintHeader/PrintRow
/// out of the next row: for untimed warm-up work the row must not report.
void DropProfileSinceLastRow();

/// Footer: summarizes the shape vs the paper's claim, and writes every row
/// recorded since the last PrintHeader to BENCH_<figure>.json (figure name
/// lowercased, non-alphanumerics folded to '_') in the directory named by
/// $GPUDB_BENCH_JSON_DIR, defaulting to the current directory. Emission
/// failures only warn -- the console table is the primary output.
void PrintFooter(const std::string& note);

}  // namespace bench
}  // namespace gpudb

#endif  // GPUDB_BENCH_BENCH_UTIL_H_
