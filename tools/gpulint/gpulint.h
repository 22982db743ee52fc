#ifndef GPUDB_TOOLS_GPULINT_GPULINT_H_
#define GPUDB_TOOLS_GPULINT_GPULINT_H_

#include <string>
#include <vector>

#include "tools/gpulint/rules.h"

namespace gpulint {

/// What to lint. Paths may be files or directories (searched recursively
/// for .h/.cc); relative paths resolve against `root`. Diagnostics are
/// reported with root-relative paths so CI output is machine-independent.
struct LintOptions {
  std::string root = ".";
  std::vector<std::string> paths;     // default: {"src"}
  std::string metric_registry_path;   // empty = R5 disabled
};

struct LintResult {
  std::vector<Diagnostic> active;      // what fails the build
  /// Silenced by a `// gpulint-allow(Rn) <reason>` marker.
  std::vector<Diagnostic> suppressed;
  /// One entry per marker rule id that suppressed nothing: stale, or
  /// written without a reason. Reported as warnings, not failures, so
  /// deleting dead code never breaks lint.
  std::vector<Diagnostic> unused_suppressions;
  int files_scanned = 0;
  /// Non-fatal setup problems (unreadable file or registry).
  std::vector<std::string> warnings;
};

/// Runs every rule over the configured paths.
LintResult RunLint(const LintOptions& options);

/// "file:line: [R2] message" — the clickable diagnostic form.
std::string FormatText(const Diagnostic& d);

/// Machine-readable report (schema documented in DESIGN.md §12).
std::string ReportJson(const LintResult& result);

/// One JSON record per active diagnostic, newline-delimited (the
/// --format=json stream): {"rule","file","line","message"}.
std::string FormatJsonRecords(const LintResult& result);

}  // namespace gpulint

#endif  // GPUDB_TOOLS_GPULINT_GPULINT_H_
