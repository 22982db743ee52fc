#include "tools/gpulint/gpulint.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>

namespace gpulint {

namespace fs = std::filesystem;

namespace {

bool ReadFile(const fs::path& p, std::string* out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool IsSourceFile(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".h" || ext == ".cpp" || ext == ".hpp";
}

/// Root-relative form of `p` when it lives under `root`, else `p` as given.
std::string Relativize(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  const fs::path rel = fs::relative(p, root, ec);
  if (ec || rel.empty() || rel.native().rfind("..", 0) == 0) {
    return p.generic_string();
  }
  return rel.generic_string();
}

}  // namespace

LintResult RunLint(const LintOptions& options) {
  LintResult result;
  const fs::path root = fs::path(options.root);

  // Collect the file set, sorted for deterministic reports.
  std::vector<fs::path> files;
  std::vector<std::string> roots =
      options.paths.empty() ? std::vector<std::string>{"src"} : options.paths;
  for (const std::string& p : roots) {
    fs::path full = fs::path(p).is_absolute() ? fs::path(p) : root / p;
    std::error_code ec;
    if (fs::is_directory(full, ec)) {
      for (fs::recursive_directory_iterator it(full, ec), end;
           !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file() && IsSourceFile(it->path())) {
          files.push_back(it->path());
        }
      }
    } else if (fs::is_regular_file(full, ec)) {
      files.push_back(full);
    } else {
      result.warnings.push_back("path not found: " + full.generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  // Parse everything, then let the rules see the whole program.
  std::vector<std::unique_ptr<SourceModel>> models;
  Program program;
  for (const fs::path& f : files) {
    std::string source;
    if (!ReadFile(f, &source)) {
      result.warnings.push_back("unreadable: " + f.generic_string());
      continue;
    }
    models.push_back(
        std::make_unique<SourceModel>(Relativize(f, root), source));
    program.AddFile(models.back().get());
    ++result.files_scanned;
  }
  program.Finalize();

  if (!options.metric_registry_path.empty()) {
    fs::path reg = fs::path(options.metric_registry_path);
    if (!reg.is_absolute()) reg = root / reg;
    std::string source;
    if (ReadFile(reg, &source)) {
      program.LoadMetricRegistry(source);
    } else {
      result.warnings.push_back("metric registry unreadable: " +
                                reg.generic_string() + " (R5 skipped)");
    }
  }

  // A diagnostic is suppressed by a reasoned marker in its own file; every
  // marker rule id that suppresses nothing is reported back.
  std::set<const InlineAllow*> used;
  for (Diagnostic& d : RunAllRules(program)) {
    const InlineAllow* allow = nullptr;
    for (const auto& model : models) {
      if (model->path() == d.file) {
        allow = model->FindInlineAllow(d.rule, d.line);
        break;
      }
    }
    if (allow != nullptr) used.insert(allow);
    (allow != nullptr ? result.suppressed : result.active)
        .push_back(std::move(d));
  }
  for (const auto& model : models) {
    for (const InlineAllow& allow : model->inline_allows()) {
      if (used.count(&allow) != 0) continue;
      result.unused_suppressions.push_back(
          {allow.rule, model->path(), allow.line,
           allow.has_reason
               ? "gpulint-allow marker suppresses nothing; prune it"
               : "gpulint-allow marker has no reason, so it suppresses "
                 "nothing"});
    }
  }

  auto by_location = [](const Diagnostic& a, const Diagnostic& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  };
  std::sort(result.active.begin(), result.active.end(), by_location);
  std::sort(result.suppressed.begin(), result.suppressed.end(), by_location);
  return result;
}

std::string FormatText(const Diagnostic& d) {
  return d.file + ":" + std::to_string(d.line) + ": [" + d.rule + "] " +
         d.message;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void AppendDiagnostics(const std::vector<Diagnostic>& diags,
                       std::string* out) {
  for (size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    *out += i == 0 ? "\n" : ",\n";
    *out += "    {\"rule\":\"" + JsonEscape(d.rule) + "\",\"file\":\"" +
            JsonEscape(d.file) + "\",\"line\":" + std::to_string(d.line) +
            ",\"message\":\"" + JsonEscape(d.message) + "\"}";
  }
  if (!diags.empty()) *out += "\n  ";
}

}  // namespace

std::string ReportJson(const LintResult& result) {
  std::string out = "{\n";
  out += "  \"version\": 1,\n";
  out += "  \"files_scanned\": " + std::to_string(result.files_scanned) +
         ",\n";
  out += "  \"diagnostics\": [";
  AppendDiagnostics(result.active, &out);
  out += "],\n";
  out += "  \"suppressed\": [";
  AppendDiagnostics(result.suppressed, &out);
  out += "],\n";
  out += "  \"unused_suppressions\": [";
  AppendDiagnostics(result.unused_suppressions, &out);
  out += "],\n";
  out += "  \"ok\": ";
  out += result.active.empty() ? "true" : "false";
  out += "\n}\n";
  return out;
}

std::string FormatJsonRecords(const LintResult& result) {
  std::string out;
  for (const Diagnostic& d : result.active) {
    out += "{\"rule\":\"" + JsonEscape(d.rule) + "\",\"file\":\"" +
           JsonEscape(d.file) + "\",\"line\":" + std::to_string(d.line) +
           ",\"message\":\"" + JsonEscape(d.message) + "\"}\n";
  }
  return out;
}

}  // namespace gpulint
