#ifndef GPUDB_TOOLS_GPULINT_RULES_H_
#define GPUDB_TOOLS_GPULINT_RULES_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "tools/gpulint/source_model.h"

namespace gpulint {

/// One finding. `rule` is the stable id (R1..R9; R6 is retired) dashboards
/// and the suppression file key on.
struct Diagnostic {
  std::string rule;
  std::string file;  // path as given to the analyzer (repo-relative in CI)
  int line = 0;
  std::string message;
};

/// The project-wide facts the per-file rules need: which names return
/// Status/Result, which functions (transitively) issue render passes, check
/// interrupts, or re-enter the thread pool, and the registered metric
/// names. Built from every scanned file before rules run.
class Program {
 public:
  /// Adds one parsed file to the program. The Program keeps a reference;
  /// models must outlive it.
  void AddFile(const SourceModel* model);

  /// Resolves the cross-file call-graph closures. Call once, after every
  /// AddFile.
  void Finalize();

  /// Loads the metric-name registry from the contents of
  /// src/common/metric_names.h: every string literal in the file is an
  /// entry; entries ending in '*' are prefixes.
  void LoadMetricRegistry(std::string_view header_source);

  const std::vector<const SourceModel*>& files() const { return files_; }

  bool ReturnsFallible(const std::string& name) const {
    return fallible_names_.count(name) != 0;
  }
  bool IssuesPass(const std::string& name) const {
    return pass_issuing_.count(name) != 0;
  }
  bool ChecksInterrupt(const std::string& name) const {
    return interrupt_checking_.count(name) != 0;
  }
  bool ReentersPool(const std::string& name) const {
    return pool_reentrant_.count(name) != 0;
  }
  bool MetricRegistered(const std::string& name, bool dynamic_suffix) const;
  bool has_metric_registry() const { return metric_registry_loaded_; }

  /// The minimum lock-order level `name` (transitively) acquires a scoped
  /// lock at, or kNoLevel when it acquires nothing in a level-mapped file.
  /// Levels come from the declared registry in DESIGN.md §12: admission(0)
  /// → session(1) → catalog(2) → device(3) → pool(4) → telemetry(5).
  /// Names defined under two different qualifiers (Session::Execute vs the
  /// fragment program's Execute) are ambiguous under gpulint's name-merged
  /// call graph; R8 treats them as opaque — never a false positive from a
  /// merge — so keep lock-acquiring entry points uniquely named.
  static constexpr int kNoLevel = 1000;
  int MinAcquireLevel(const std::string& name) const;

  /// Every GUARDED_BY-annotated field name across the program (R9's "do not
  /// touch from a band-parallel kernel" set).
  const std::set<std::string>& guarded_fields() const {
    return guarded_fields_;
  }

  /// Unguarded field names declared in the .h/.cc pair `stem` (path minus
  /// extension). R9 subtracts these from the guarded set at sites inside
  /// the pair, so a class whose own unguarded `counters_` shadows another
  /// class's guarded `counters_` is not falsely flagged.
  const std::set<std::string>& UnguardedFieldsForStem(
      const std::string& stem) const;

 private:
  /// Closure of "calls something in `seed`, directly or transitively".
  /// Functions named in `blocked` neither join the closure nor propagate
  /// it (used to stop device-internal interrupt checks from absolving
  /// operator loops of their own CheckInterrupt call).
  std::set<std::string> Closure(const std::set<std::string>& seed,
                                const std::set<std::string>& blocked = {})
      const;

  std::vector<const SourceModel*> files_;
  std::map<std::string, std::set<std::string>> calls_;  // fn -> callees
  std::set<std::string> gpu_defined_;  // functions defined under src/gpu
  std::set<std::string> fallible_names_;
  std::set<std::string> pass_issuing_;
  std::set<std::string> interrupt_checking_;
  std::set<std::string> pool_reentrant_;
  std::vector<std::string> metric_exact_;
  std::vector<std::string> metric_prefixes_;
  bool metric_registry_loaded_ = false;
  // fn -> minimum lock-order level it directly acquires (R8).
  std::map<std::string, int> acquire_level_;
  // fn -> distinct definition sites ("Class" qualifier, or "@file" for
  // free / in-class definitions). Two or more tags = ambiguous name.
  std::map<std::string, std::set<std::string>> def_tags_;
  std::set<std::string> ambiguous_;
  std::set<std::string> guarded_fields_;
  std::map<std::string, std::set<std::string>> unguarded_by_stem_;
};

/// R1: no discarded Status/Result values, and every Status/Result-returning
/// declaration in a header under common/, gpu/, core/, or sql/ carries an
/// explicit [[nodiscard]].
std::vector<Diagnostic> RunR1(const Program& program);

/// R2: a loop in src/core or src/gpu whose body issues a render pass
/// (directly or through a helper) must contain an interrupt check.
std::vector<Diagnostic> RunR2(const Program& program);

/// R3: no assert()/abort() on device paths (src/gpu, src/core) — faults
/// must propagate as Status.
std::vector<Diagnostic> RunR3(const Program& program);

/// R4: ParallelFor bodies must not re-enter the ThreadPool or the Device
/// render path.
std::vector<Diagnostic> RunR4(const Program& program);

/// R5: every literal metric name passed to counter()/gauge()/histogram()
/// must appear in src/common/metric_names.h.
std::vector<Diagnostic> RunR5(const Program& program);

// R6 is retired: it paired table-store writers with a catalog version
// bump, and registered tables have neither (DESIGN.md §12). Its id stays
// unused so R7-R9 keep their numbers.

/// R7: every mutable field of a mutex-owning class is GUARDED_BY-annotated
/// or carries a `// lint: lock-free (reason)` justification, and naked
/// .lock()/.unlock() calls are banned in favor of scoped holders
/// (src/common/mutex.h, the wrapper itself, is exempt).
std::vector<Diagnostic> RunR7(const Program& program);

/// R8: lock-order discipline against the declared registry (DESIGN.md §12).
/// A locked region must not call anything that (transitively) acquires a
/// lock at an earlier level, must not lexically nest a second scoped
/// acquisition in the same file, and must not invoke listeners/callbacks.
std::vector<Diagnostic> RunR8(const Program& program);

/// R9: band-parallel kernels (src/gpu functions named *RowKernel or *Rows,
/// ParallelFor bodies) must not
/// touch any GUARDED_BY field — workers synchronize through the pool's own
/// protocol, never through engine locks.
std::vector<Diagnostic> RunR9(const Program& program);

/// All rules, in id order.
std::vector<Diagnostic> RunAllRules(const Program& program);

/// Human-readable one-line description per rule id (for --list-rules and
/// diagnostic rendering).
const std::map<std::string, std::string>& RuleDescriptions();

}  // namespace gpulint

#endif  // GPUDB_TOOLS_GPULINT_RULES_H_
