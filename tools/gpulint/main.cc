// gpulint — the engine's in-tree static analyzer (DESIGN.md §12).
//
// Usage:
//   gpulint [--root DIR] [--json FILE] [--format=text|json]
//           [--registry FILE] [--list-rules] [paths...]
//
// With no arguments it lints src/ under the current directory and loads
// the metric-name registry from src/common/metric_names.h. A diagnostic is
// suppressed only by a `// gpulint-allow(Rn) <reason>` marker on its line
// or the line above; a marker without a reason suppresses nothing, and a
// marker that suppresses nothing is warned about. --format=json streams
// one JSON record per active diagnostic to stdout (rule, file, line,
// message) instead of the text lines. Exit status is 0 when every
// diagnostic is suppressed or absent, 1 otherwise, 2 on usage errors.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "tools/gpulint/gpulint.h"

namespace {

bool FlagValue(const std::string& arg, std::string_view flag,
               std::string* value) {
  const std::string prefix = std::string(flag) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  gpulint::LintOptions options;
  std::string json_path;
  std::string format = "text";
  bool registry_given = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--list-rules") {
      for (const auto& [id, text] : gpulint::RuleDescriptions()) {
        std::printf("%s  %s\n", id.c_str(), text.c_str());
      }
      return 0;
    }
    if (FlagValue(arg, "--root", &value)) {
      options.root = value;
    } else if (FlagValue(arg, "--json", &value)) {
      json_path = value;
    } else if (FlagValue(arg, "--format", &value)) {
      if (value != "text" && value != "json") {
        std::fprintf(stderr, "gpulint: --format must be text or json\n");
        return 2;
      }
      format = value;
    } else if (FlagValue(arg, "--registry", &value)) {
      options.metric_registry_path = value;
      registry_given = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr,
                   "gpulint: unknown flag '%s'\n"
                   "usage: gpulint [--root DIR] [--json FILE] "
                   "[--format=text|json] [--registry FILE] [--list-rules] "
                   "[paths...]\n",
                   arg.c_str());
      return 2;
    } else {
      options.paths.push_back(arg);
    }
  }

  namespace fs = std::filesystem;
  if (!registry_given &&
      fs::exists(fs::path(options.root) / "src/common/metric_names.h")) {
    options.metric_registry_path = "src/common/metric_names.h";
  }

  const gpulint::LintResult result = gpulint::RunLint(options);

  for (const std::string& w : result.warnings) {
    std::fprintf(stderr, "gpulint: warning: %s\n", w.c_str());
  }
  for (const gpulint::Diagnostic& d : result.unused_suppressions) {
    std::fprintf(stderr, "gpulint: warning: %s\n",
                 gpulint::FormatText(d).c_str());
  }
  if (format == "json") {
    std::fputs(gpulint::FormatJsonRecords(result).c_str(), stdout);
  } else {
    for (const gpulint::Diagnostic& d : result.active) {
      std::printf("%s\n", gpulint::FormatText(d).c_str());
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "gpulint: cannot write %s\n", json_path.c_str());
      return 2;
    }
    out << gpulint::ReportJson(result);
  }

  // In json mode stdout carries only records; the human summary moves to
  // stderr so pipelines can consume the stream directly.
  std::fprintf(format == "json" ? stderr : stdout,
               "gpulint: %zu diagnostic%s (%zu suppressed) across %d files\n",
               result.active.size(), result.active.size() == 1 ? "" : "s",
               result.suppressed.size(), result.files_scanned);
  return result.active.empty() ? 0 : 1;
}
