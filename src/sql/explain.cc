#include "src/sql/explain.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/profile.h"
#include "src/core/op_span.h"
#include "src/core/pool_executor.h"
#include "src/gpu/counters.h"
#include "src/gpu/device.h"
#include "src/gpu/perf_model.h"

namespace gpudb {
namespace sql {

namespace {

/// Tags GpuOpSpan attaches to every operator; the formatter prints them in
/// its cost columns, so they are excluded from the trailing key=value list.
bool IsCostTag(std::string_view key) {
  static constexpr std::string_view kCostTags[] = {
      "passes",          "fragments",       "fragments_passed",
      "occlusion_readbacks", "bytes_uploaded", "bytes_read_back",
      "texture_swap_ins", "fill_ms",        "depth_write_ms",
      "setup_ms",        "occl_readback_ms", "upload_ms",
      "swap_ms",         "buffer_readback_ms", "compute_ms",
      "total_ms",        "sql"};
  for (std::string_view k : kCostTags) {
    if (k == key) return true;
  }
  return false;
}

/// Device-level leaf spans rolled up into the per-operator summary line.
bool IsDeviceSpan(const FinishedSpan& span) {
  return span.name.rfind("pass:", 0) == 0 || span.name.rfind("gpu.", 0) == 0;
}

std::string Ms(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  return buf;
}

std::string Num(double value) {
  char buf[32];
  if (value == static_cast<double>(static_cast<long long>(value))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.4g", value);
  }
  return buf;
}

struct Rollup {
  uint64_t passes = 0;
  double fragments = 0;
  double fragments_passed = 0;
  double bytes_read_back = 0;
  double bytes_uploaded = 0;
  double bytes_swapped = 0;
  // Deep-profile tags, present only on passes run with the Profiler on.
  double killed = 0;  // alpha + stencil + depth kills
  double plane_bytes_read = 0;
  double plane_bytes_written = 0;

  bool empty() const { return passes == 0 && bytes_read_back == 0 &&
                              bytes_uploaded == 0 && bytes_swapped == 0; }
};

class TreeFormatter {
 public:
  explicit TreeFormatter(const std::vector<FinishedSpan>& spans)
      : spans_(spans) {
    for (size_t i = 0; i < spans_.size(); ++i) {
      index_[spans_[i].id] = i;
    }
    children_.resize(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      auto it = index_.find(spans_[i].parent_id);
      if (spans_[i].parent_id != 0 && it != index_.end()) {
        children_[it->second].push_back(i);
      } else {
        roots_.push_back(i);
      }
    }
    // Spans arrive in completion order (children first); display wants
    // chronological start order at every level.
    auto by_start = [this](size_t a, size_t b) {
      return spans_[a].start_us != spans_[b].start_us
                 ? spans_[a].start_us < spans_[b].start_us
                 : spans_[a].id < spans_[b].id;
    };
    std::sort(roots_.begin(), roots_.end(), by_start);
    for (auto& kids : children_) std::sort(kids.begin(), kids.end(), by_start);
  }

  std::string Format() {
    std::string out;
    for (size_t root : roots_) FormatNode(root, 0, &out);
    return out;
  }

 private:
  void FormatNode(size_t i, int depth, std::string* out) {
    const FinishedSpan& span = spans_[i];
    if (IsDeviceSpan(span)) return;  // rolled up by the parent
    out->append(static_cast<size_t>(depth) * 2, ' ');
    out->append(span.name);

    const double total = span.NumberTag("total_ms", -1.0);
    if (total >= 0) {
      double children_total = 0;
      for (size_t child : children_[i]) {
        children_total += spans_[child].NumberTag("total_ms", 0.0);
      }
      const double self = std::max(0.0, total - children_total);
      out->append("  total=" + Ms(total) + "ms self=" + Ms(self) + "ms");
      out->append("  (fill " + Ms(span.NumberTag("fill_ms")) + " | depth " +
                  Ms(span.NumberTag("depth_write_ms")) + " | setup " +
                  Ms(span.NumberTag("setup_ms")) + " | readback " +
                  Ms(span.NumberTag("occl_readback_ms") +
                     span.NumberTag("buffer_readback_ms")));
      if (span.NumberTag("swap_ms") > 0) {
        out->append(" | swap " + Ms(span.NumberTag("swap_ms")));
      }
      out->append(")");
    }
    // Estimated-vs-actual cardinality (present when ANALYZE statistics are
    // attached): the paired rendering replaces the raw selected/est_rows
    // tags, so unanalyzed output is unchanged.
    const double est_rows = span.NumberTag("est_rows", -1.0);
    if (est_rows >= 0) {
      out->append("  rows est=" + Num(est_rows));
      const double actual = span.NumberTag("selected", -1.0);
      if (actual >= 0) out->append(" actual=" + Num(actual));
    }
    for (const TraceTag& tag : span.tags) {
      if (IsCostTag(tag.key)) continue;
      if (tag.key == "est_rows") continue;
      if (est_rows >= 0 && tag.key == "selected") continue;
      out->append("  " + tag.key + "=" +
                  (tag.is_number ? Num(tag.number) : tag.text));
    }
    out->append("\n");

    const Rollup rollup = RollupDeviceChildren(i);
    if (!rollup.empty()) {
      std::vector<std::string> parts;
      if (rollup.passes > 0) {
        parts.push_back(std::to_string(rollup.passes) + " passes: " +
                        Num(rollup.fragments) + " fragments -> " +
                        Num(rollup.fragments_passed) + " passed");
      }
      if (rollup.bytes_read_back > 0) {
        parts.push_back(Num(rollup.bytes_read_back) + " B read back");
      }
      if (rollup.bytes_uploaded > 0) {
        parts.push_back(Num(rollup.bytes_uploaded) + " B uploaded");
      }
      if (rollup.bytes_swapped > 0) {
        parts.push_back(Num(rollup.bytes_swapped) + " B swapped in");
      }
      if (rollup.killed > 0) {
        parts.push_back(Num(rollup.killed) + " killed");
      }
      if (rollup.plane_bytes_read > 0 || rollup.plane_bytes_written > 0) {
        parts.push_back("plane " + Num(rollup.plane_bytes_read) + " B read / " +
                        Num(rollup.plane_bytes_written) + " B written");
      }
      out->append(static_cast<size_t>(depth + 1) * 2, ' ');
      out->append("[");
      for (size_t p = 0; p < parts.size(); ++p) {
        if (p > 0) out->append(", ");
        out->append(parts[p]);
      }
      out->append("]\n");
    }
    for (size_t child : children_[i]) {
      FormatNode(child, depth + 1, out);
    }
  }

  /// Aggregates the direct device-span children of operator `i`.
  Rollup RollupDeviceChildren(size_t i) const {
    Rollup r;
    for (size_t child : children_[i]) {
      const FinishedSpan& span = spans_[child];
      if (!IsDeviceSpan(span)) continue;
      if (span.name.rfind("pass:", 0) == 0) {
        ++r.passes;
        r.fragments += span.NumberTag("fragments");
        r.fragments_passed += span.NumberTag("fragments_passed");
        r.killed += span.NumberTag("alpha_killed") +
                    span.NumberTag("stencil_killed") +
                    span.NumberTag("depth_killed");
        r.plane_bytes_read += span.NumberTag("plane_bytes_read");
        r.plane_bytes_written += span.NumberTag("plane_bytes_written");
      } else if (span.name == "gpu.read_stencil" ||
                 span.name == "gpu.read_depth") {
        r.bytes_read_back += span.NumberTag("bytes");
      } else if (span.name == "gpu.upload_texture") {
        r.bytes_uploaded += span.NumberTag("bytes");
      } else if (span.name == "gpu.texture_swap_in") {
        r.bytes_swapped += span.NumberTag("bytes");
      }
    }
    return r;
  }

  const std::vector<FinishedSpan>& spans_;
  std::map<uint64_t, size_t> index_;
  std::vector<std::vector<size_t>> children_;
  std::vector<size_t> roots_;
};

}  // namespace

std::string FormatSpanTree(const std::vector<FinishedSpan>& spans) {
  return TreeFormatter(spans).Format();
}

Result<QueryResult> ExecuteAnalyze(core::PoolExecutor* executor,
                                   const Query& query,
                                   std::string_view input) {
  GPUDB_RETURN_NOT_OK(executor->RequireOneShard("EXPLAIN ANALYZE"));
  gpu::Device& device = executor->device();
  const core::PoolExecutor::Statement statement(executor);
  const TraceCapture capture;
  const gpu::PassLogScope pass_log(&device, query.explain_profile);
  QueryResult result;
  {
    core::GpuOpSpan root("query", &device);
    root.AddTag("sql", input);
    GPUDB_RETURN_NOT_OK(ExecuteParsed(executor, query, &result));
  }

  result.analyzed = true;
  result.breakdown =
      gpu::PerfModel().Estimate(executor->last_stats().counters);
  result.simulated_total_ms = result.breakdown.TotalMs();
  result.spans = capture.Finished();
  result.explain = FormatSpanTree(result.spans);
  if (query.explain_profile) {
    // Group this query's passes by label in first-appearance order. The
    // pass records and their deep counters are band-reduced
    // deterministically, so groups -- and the rendered table -- are
    // byte-identical at any worker-thread count.
    std::vector<PassProfileGroup> groups;
    for (const gpu::PassRecord& pass : pass_log.records()) {
      auto group = std::find_if(
          groups.begin(), groups.end(),
          [&pass](const PassProfileGroup& g) { return g.label == pass.label; });
      if (group == groups.end()) {
        group = groups.insert(groups.end(), PassProfileGroup{});
        group->label = pass.label;
      }
      group->Add(pass.fragments, pass.fragments_passed, pass.prof, pass.fused,
                 pass.cache_hit);
    }
    result.profiled = true;
    result.profile_groups = std::move(groups);
    result.profile = FormatPassProfileTable(result.profile_groups);
  }
  return result;
}

}  // namespace sql
}  // namespace gpudb
