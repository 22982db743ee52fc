#include "bench/bench_util.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>

#include "src/common/json.h"
#include "src/gpu/thread_pool.h"

namespace gpudb {
namespace bench {

namespace {

/// Rows of the figure currently being printed, gathered between PrintHeader
/// and PrintFooter for the JSON side channel.
struct FigureRecording {
  bool active = false;
  std::string figure;
  std::string description;
  std::string paper_claim;
  std::vector<ResultRow> rows;
};

FigureRecording& Recording() {
  static FigureRecording recording;
  return recording;
}

std::string SanitizeFigureName(const std::string& figure) {
  std::string out;
  out.reserve(figure.size());
  for (char c : figure) {
    out += std::isalnum(static_cast<unsigned char>(c))
               ? static_cast<char>(std::tolower(static_cast<unsigned char>(c)))
               : '_';
  }
  return out;
}

/// Cumulative Profiler totals across every pass label; PrintRow subtracts
/// consecutive readings to attribute counters to rows.
struct ProfTotals {
  uint64_t passes = 0;
  uint64_t fragments = 0;
  PassProfile prof;
};

ProfTotals CurrentProfTotals() {
  ProfTotals t;
  for (const PassProfileGroup& g : Profiler::Global().Snapshot()) {
    t.passes += g.passes;
    t.fragments += g.fragments;
    t.prof.Merge(g.prof);
  }
  return t;
}

/// Profiler reading as of the last PrintHeader/PrintRow.
ProfTotals& LastProfTotalsSlot() {
  static ProfTotals last;
  return last;
}

void WriteFigureJson(const FigureRecording& rec, const std::string& note) {
  const char* dir = std::getenv("GPUDB_BENCH_JSON_DIR");
  const std::string path = std::string(dir != nullptr ? dir : ".") +
                           "/BENCH_" + SanitizeFigureName(rec.figure) +
                           ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n";
  out << "  \"figure\": " << json::Quote(rec.figure) << ",\n";
  out << "  \"threads\": " << BenchThreads() << ",\n";
  // Key present only under --profile, keeping default JSONs byte-stable.
  if (Profiler::Global().enabled()) out << "  \"profile\": true,\n";
  out << "  \"description\": " << json::Quote(rec.description) << ",\n";
  out << "  \"paper_claim\": " << json::Quote(rec.paper_claim) << ",\n";
  out << "  \"note\": " << json::Quote(note) << ",\n";
  out << "  \"rows\": [";
  for (size_t i = 0; i < rec.rows.size(); ++i) {
    const ResultRow& row = rec.rows[i];
    const double speedup = row.gpu_model_total_ms > 0
                               ? row.cpu_model_ms / row.gpu_model_total_ms
                               : 0.0;
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"label\": " << json::Quote(row.label);
    // Only sub-swept figures carry the key, keeping the others byte-stable.
    if (!row.series.empty()) out << ", \"series\": " << json::Quote(row.series);
    out << ", \"gpu_model_total_ms\": " << json::Number(row.gpu_model_total_ms)
        << ", \"gpu_model_compute_ms\": "
        << json::Number(row.gpu_model_compute_ms)
        << ", \"cpu_model_ms\": " << json::Number(row.cpu_model_ms)
        << ", \"speedup\": " << json::Number(speedup)
        << ", \"gpu_wall_ms\": " << json::Number(row.gpu_wall_ms)
        << ", \"cpu_wall_ms\": " << json::Number(row.cpu_wall_ms)
        << ", \"check_passed\": " << (row.check_passed ? "true" : "false");
    if (row.profiled) {
      // Counter columns only exist under --profile, so baseline JSONs (and
      // bench_diff.py comparisons against them) are byte-compatible.
      out << ", \"prof_passes\": " << row.prof_passes
          << ", \"prof_fragments\": " << row.prof_fragments
          << ", \"alpha_killed\": " << row.prof.alpha_killed
          << ", \"stencil_killed\": " << row.prof.stencil_killed
          << ", \"depth_tested\": " << row.prof.depth_tested
          << ", \"depth_killed\": " << row.prof.depth_killed
          << ", \"occlusion_samples\": " << row.prof.occlusion_samples
          << ", \"plane_bytes_read\": " << row.prof.plane_bytes_read
          << ", \"plane_bytes_written\": " << row.prof.plane_bytes_written;
    }
    out << "}";
  }
  out << "\n  ]\n}\n";
}

/// Worker-thread count shared by every device the bench creates; mutable
/// only through InitBench.
int& BenchThreadsSlot() {
  static int threads = gpu::ThreadPool::DefaultThreads();
  return threads;
}

}  // namespace

std::vector<size_t> RecordSweep() {
  return {250'000, 500'000, 750'000, 1'000'000};
}

void InitBench(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--profile") {
      Profiler::Global().set_enabled(true);
    } else if (arg.rfind("--threads=", 0) == 0) {
      const int n = std::atoi(arg.c_str() + 10);
      if (n < 1) {
        std::fprintf(stderr, "invalid %s: thread count must be >= 1\n",
                     arg.c_str());
        std::exit(2);
      }
      BenchThreadsSlot() = n;
    } else {
      std::fprintf(stderr,
                   "unknown flag %s\nusage: %s [--threads=N] [--profile]\n",
                   arg.c_str(), argv[0]);
      std::exit(2);
    }
  }
}

int BenchThreads() { return BenchThreadsSlot(); }

std::unique_ptr<gpu::Device> MakeDevice() {
  auto device = std::make_unique<gpu::Device>(1000, 1000);
  const Status st = device->SetWorkerThreads(BenchThreads());
  if (!st.ok()) {
    std::fprintf(stderr, "SetWorkerThreads failed: %s\n",
                 st.ToString().c_str());
    std::abort();
  }
  return device;
}

const db::Table& TcpIpTable() {
  static const db::Table* table = [] {
    auto t = db::MakeTcpIpTable(1'000'000);
    if (!t.ok()) {
      std::fprintf(stderr, "failed to generate TCP/IP table: %s\n",
                   t.status().ToString().c_str());
      std::abort();
    }
    return new db::Table(std::move(t).ValueOrDie());
  }();
  return *table;
}

std::vector<float> Slice(const db::Column& column, size_t n) {
  n = std::min(n, column.size());
  return std::vector<float>(column.values().begin(),
                            column.values().begin() + n);
}

std::vector<uint32_t> SliceInts(const db::Column& column, size_t n) {
  n = std::min(n, column.size());
  std::vector<uint32_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = column.int_value(i);
  return out;
}

core::AttributeBinding UploadColumn(gpu::Device* device,
                                    const db::Column& column, size_t n) {
  const std::vector<float> values = Slice(column, n);
  auto tex = gpu::Texture::FromColumns({&values}, 1000);
  if (!tex.ok()) {
    std::fprintf(stderr, "texture build failed: %s\n",
                 tex.status().ToString().c_str());
    std::abort();
  }
  auto id = device->UploadTexture(std::move(tex).ValueOrDie());
  if (!id.ok() || !device->SetViewport(n).ok()) {
    std::fprintf(stderr, "upload failed\n");
    std::abort();
  }
  core::AttributeBinding binding;
  binding.texture = id.ValueOrDie();
  binding.channel = 0;
  binding.encoding = core::DepthEncoding::ForColumn(column);
  return binding;
}

float ThresholdForSelectivity(const db::Column& column, size_t n,
                              double selectivity) {
  std::vector<float> sorted = Slice(column, n);
  std::sort(sorted.begin(), sorted.end());
  // x > sorted[(1-s)*n - 1] keeps ~s*n values.
  const double fraction = 1.0 - selectivity;
  const auto rank = static_cast<size_t>(
      std::clamp(fraction * static_cast<double>(n), 1.0,
                 static_cast<double>(n)));
  return sorted[rank - 1];
}

void PrintHeader(const std::string& figure, const std::string& description,
                 const std::string& paper_claim) {
  Recording() = {true, figure, description, paper_claim, {}};
  DropProfileSinceLastRow();
  std::printf("================================================================================\n");
  std::printf("%s: %s\n", figure.c_str(), description.c_str());
  std::printf("paper: %s\n", paper_claim.c_str());
  std::printf("model columns = simulated 2004 hardware (GeForce FX 5900 vs dual 2.8GHz Xeon);\n");
  std::printf("wall columns  = this machine's execution of the pipeline simulator / baseline.\n");
  std::printf("================================================================================\n");
}

void PrintRowHeader() {
  std::printf("%-14s %14s %16s %14s %10s %12s %12s %7s\n", "label",
              "gpu_model_ms", "gpu_compute_ms", "cpu_model_ms", "speedup",
              "gpu_wall_ms", "cpu_wall_ms", "check");
}

void DropProfileSinceLastRow() {
  if (Profiler::Global().enabled()) LastProfTotalsSlot() = CurrentProfTotals();
}

void PrintRow(const ResultRow& row) {
  ResultRow recorded = row;
  if (Profiler::Global().enabled()) {
    const ProfTotals now = CurrentProfTotals();
    const ProfTotals& last = LastProfTotalsSlot();
    recorded.profiled = true;
    recorded.prof_passes = now.passes - last.passes;
    recorded.prof_fragments = now.fragments - last.fragments;
    recorded.prof.alpha_killed = now.prof.alpha_killed - last.prof.alpha_killed;
    recorded.prof.stencil_killed =
        now.prof.stencil_killed - last.prof.stencil_killed;
    recorded.prof.depth_tested = now.prof.depth_tested - last.prof.depth_tested;
    recorded.prof.depth_killed = now.prof.depth_killed - last.prof.depth_killed;
    recorded.prof.occlusion_samples =
        now.prof.occlusion_samples - last.prof.occlusion_samples;
    recorded.prof.plane_bytes_read =
        now.prof.plane_bytes_read - last.prof.plane_bytes_read;
    recorded.prof.plane_bytes_written =
        now.prof.plane_bytes_written - last.prof.plane_bytes_written;
    LastProfTotalsSlot() = now;
  }
  if (Recording().active) Recording().rows.push_back(recorded);
  const double speedup =
      row.gpu_model_total_ms > 0 ? row.cpu_model_ms / row.gpu_model_total_ms
                                 : 0.0;
  std::printf("%-14s %14.3f %16.3f %14.3f %9.2fx %12.2f %12.2f %7s\n",
              row.label.c_str(), row.gpu_model_total_ms,
              row.gpu_model_compute_ms, row.cpu_model_ms, speedup,
              row.gpu_wall_ms, row.cpu_wall_ms,
              row.check_passed ? "OK" : "FAIL");
}

void PrintFooter(const std::string& note) {
  std::printf("--------------------------------------------------------------------------------\n");
  std::printf("%s\n\n", note.c_str());
  if (Recording().active) {
    WriteFigureJson(Recording(), note);
    Recording() = {};
  }
}

}  // namespace bench
}  // namespace gpudb
