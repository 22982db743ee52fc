#include "tools/gpulint/rules.h"

#include <algorithm>
#include <cctype>
#include <string_view>

#include "tools/gpulint/lexer.h"

namespace gpulint {

namespace {

/// Matches `path` against a repo directory: "src/gpu" matches
/// "src/gpu/device.cc" and "/abs/checkout/src/gpu/device.cc" but not
/// "src/gpu_extras/". Works on the plain-slash paths this repo uses.
bool InDir(const std::string& path, std::string_view dir) {
  const std::string needle = std::string(dir) + "/";
  if (path.rfind(needle, 0) == 0) return true;
  return path.find("/" + needle) != std::string::npos;
}

bool IsHeader(const std::string& path) {
  return path.size() > 2 && path.compare(path.size() - 2, 2, ".h") == 0;
}

bool EndsWith(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// R1's annotation scope: the four API layers the issue pins down.
bool InAnnotatedLayer(const std::string& path) {
  return InDir(path, "src/common") || InDir(path, "src/gpu") ||
         InDir(path, "src/core") || InDir(path, "src/sql");
}

bool OnDevicePath(const std::string& path) {
  return InDir(path, "src/gpu") || InDir(path, "src/core");
}

/// The wrapper layer that implements scoped locking is the one file allowed
/// to touch the raw mutex (R7) and whose internals R8 never second-guesses.
bool IsMutexWrapper(const std::string& path) {
  return EndsWith(path, "common/mutex.h");
}

/// The declared lock-order registry (DESIGN.md §12), keyed by file. A file
/// hosts at most one level because each mutex-owning subsystem lives in its
/// own translation unit. kUnleveled files carry locks gpulint does not
/// order (tests, fixtures outside the engine).
constexpr int kUnleveled = -1;
int LockLevelOf(const std::string& path) {
  static constexpr struct {
    const char* dir;
    const char* stem;  // filename prefix within dir ("" = whole dir)
    int level;
  } kLevels[] = {
      // Order matters: "device_pool" must win over the "device" prefix.
      {"src/sql", "admission", 0},    {"src/sql", "session", 1},
      {"src/db", "catalog", 2},       {"src/gpu", "device_pool", 4},
      {"src/gpu", "thread_pool", 3},  {"src/gpu", "device", 3},
      {"src/core", "pool_executor", 3},
      {"src/common", "metrics", 5},   {"src/common", "query_log", 5},
      {"src/common", "trace", 5},     {"src/common", "profile", 5},
  };
  const size_t slash = path.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  for (const auto& entry : kLevels) {
    if (!InDir(path, entry.dir)) continue;
    if (base.rfind(entry.stem, 0) == 0) return entry.level;
  }
  return kUnleveled;
}

/// Path minus its extension: "src/gpu/device.cc" -> "src/gpu/device" — the
/// key a header/source pair shares (R9 shadow handling).
std::string PathStem(const std::string& path) {
  const size_t dot = path.find_last_of('.');
  const size_t slash = path.find_last_of('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return path;
  }
  return path.substr(0, dot);
}

std::string Lowercase(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

/// R8's listener test: an invoked name that sounds like a user-supplied
/// hook, excluding the registration/introspection API around it.
bool IsListenerInvocation(const std::string& name) {
  const std::string lower = Lowercase(name);
  if (lower.find("listener") == std::string::npos &&
      lower.find("callback") == std::string::npos) {
    return false;
  }
  static constexpr std::string_view kAccessorPrefixes[] = {
      "add", "register", "remove", "set", "clear", "num", "has",
  };
  for (std::string_view prefix : kAccessorPrefixes) {
    if (lower.rfind(prefix, 0) == 0) return false;
  }
  return true;
}

}  // namespace

void Program::AddFile(const SourceModel* model) {
  files_.push_back(model);
  const bool in_gpu = InDir(model->path(), "src/gpu");
  for (const FunctionDef& f : model->functions()) {
    calls_[f.name].insert(f.calls.begin(), f.calls.end());
    if (in_gpu) gpu_defined_.insert(f.name);
    def_tags_[f.name].insert(f.qualifier.empty() ? "@" + model->path()
                                                 : f.qualifier);
  }
  for (const FallibleDecl& d : model->fallible_decls()) {
    fallible_names_.insert(d.name);
  }
  // R8/R9 facts: field guard coverage and direct lock acquisitions.
  const std::string stem = PathStem(model->path());
  for (const ClassInfo& cls : model->classes()) {
    for (const MemberField& f : cls.fields) {
      if (f.guarded) {
        guarded_fields_.insert(f.name);
      } else {
        unguarded_by_stem_[stem].insert(f.name);
      }
    }
  }
  const int level = LockLevelOf(model->path());
  if (level != kUnleveled && !IsMutexWrapper(model->path())) {
    for (const LockSite& site : model->lock_sites()) {
      if (site.adopt || site.function.empty()) continue;
      auto [it, inserted] = acquire_level_.emplace(site.function, level);
      if (!inserted) it->second = std::min(it->second, level);
    }
  }
}

std::set<std::string> Program::Closure(
    const std::set<std::string>& seed,
    const std::set<std::string>& blocked) const {
  std::set<std::string> result = seed;
  bool grew = true;
  while (grew) {
    grew = false;
    for (const auto& [fn, callees] : calls_) {
      if (result.count(fn) != 0 || blocked.count(fn) != 0) continue;
      for (const std::string& callee : callees) {
        if (result.count(callee) != 0) {
          result.insert(fn);
          grew = true;
          break;
        }
      }
    }
  }
  return result;
}

void Program::Finalize() {
  pass_issuing_ = Closure(
      {"RenderQuad", "RenderTexturedQuad", "DrawTriangles", "RenderInternal"});
  // Every Device entry point checks interrupts at pass entry, but the
  // cancellation-coverage rule demands that operator *loops* carry their own
  // check (a skipped pass must not leave the loop spinning — see
  // EXTENDING.md). So device-internal functions are barred from carrying
  // "checks interrupts" out to their callers: only an explicit
  // CheckInterrupt (or a non-gpu helper that makes one) satisfies R2.
  std::set<std::string> blocked = gpu_defined_;
  blocked.erase("CheckInterrupt");
  blocked.erase("InterruptPending");
  interrupt_checking_ =
      Closure({"CheckInterrupt", "InterruptPending"}, blocked);
  pool_reentrant_ = Closure({"ParallelFor", "EnsurePool", "SetWorkerThreads",
                             "RenderQuad", "RenderTexturedQuad",
                             "DrawTriangles", "RenderInternal"});

  // Names defined under two or more distinct qualifiers merge unrelated
  // functions; treating them as lock-transparent would let (for example)
  // the fragment program's Execute inherit Session::Execute's admission
  // call. R8 treats them as opaque instead.
  for (const auto& [name, tags] : def_tags_) {
    if (tags.size() >= 2) ambiguous_.insert(name);
  }

  // Propagate minimum acquire levels up the (name-merged) call graph to a
  // fixed point: a caller acquires everything its callees acquire.
  bool grew = true;
  while (grew) {
    grew = false;
    for (const auto& [fn, callees] : calls_) {
      int best = MinAcquireLevel(fn);
      if (best == kNoLevel && ambiguous_.count(fn) != 0) continue;
      for (const std::string& callee : callees) {
        best = std::min(best, MinAcquireLevel(callee));
      }
      if (best < MinAcquireLevel(fn)) {
        acquire_level_[fn] = best;
        grew = true;
      }
    }
  }
}

int Program::MinAcquireLevel(const std::string& name) const {
  if (ambiguous_.count(name) != 0) return kNoLevel;
  auto it = acquire_level_.find(name);
  return it == acquire_level_.end() ? kNoLevel : it->second;
}

const std::set<std::string>& Program::UnguardedFieldsForStem(
    const std::string& stem) const {
  static const std::set<std::string> kEmpty;
  auto it = unguarded_by_stem_.find(stem);
  return it == unguarded_by_stem_.end() ? kEmpty : it->second;
}

void Program::LoadMetricRegistry(std::string_view header_source) {
  for (const Token& t : Tokenize(header_source)) {
    if (t.kind != TokenKind::kString || t.text.empty()) continue;
    if (t.text.back() == '*') {
      metric_prefixes_.push_back(t.text.substr(0, t.text.size() - 1));
    } else {
      metric_exact_.push_back(t.text);
    }
  }
  metric_registry_loaded_ = true;
}

bool Program::MetricRegistered(const std::string& name,
                               bool dynamic_suffix) const {
  if (dynamic_suffix) {
    // "counter(\"executor.\" + op)": the literal must sit on a wildcard.
    for (const std::string& p : metric_prefixes_) {
      if (name.rfind(p, 0) == 0) return true;
    }
    return false;
  }
  if (std::find(metric_exact_.begin(), metric_exact_.end(), name) !=
      metric_exact_.end()) {
    return true;
  }
  for (const std::string& p : metric_prefixes_) {
    if (name.size() > p.size() && name.rfind(p, 0) == 0) return true;
  }
  return false;
}

std::vector<Diagnostic> RunR1(const Program& program) {
  std::vector<Diagnostic> out;
  for (const SourceModel* file : program.files()) {
    // R1a: annotation coverage in the API headers.
    if (IsHeader(file->path()) && InAnnotatedLayer(file->path())) {
      for (const FallibleDecl& d : file->fallible_decls()) {
        if (d.nodiscard) continue;
        out.push_back({"R1", file->path(), d.line,
                       std::string(d.returns_result ? "Result" : "Status") +
                           "-returning declaration '" + d.name +
                           "' lacks [[nodiscard]]"});
      }
    }
    // R1b: discarded calls anywhere.
    for (const DiscardedCall& c : file->discarded_calls()) {
      if (!program.ReturnsFallible(c.callee)) continue;
      if (c.void_cast) {
        out.push_back({"R1", file->path(), c.line,
                       "'(void)' cast drops the Status/Result of '" +
                           c.callee +
                           "'; consume it or route it through DropStatus()"});
      } else {
        out.push_back({"R1", file->path(), c.line,
                       "result of fallible call '" + c.callee +
                           "' is discarded"});
      }
    }
  }
  return out;
}

std::vector<Diagnostic> RunR2(const Program& program) {
  std::vector<Diagnostic> out;
  for (const SourceModel* file : program.files()) {
    if (!OnDevicePath(file->path())) continue;
    for (const Loop& loop : file->loops()) {
      const std::set<std::string> calls =
          file->CallsIn(loop.body_begin, loop.body_end);
      std::string pass_call;
      bool checked = false;
      for (const std::string& name : calls) {
        if (pass_call.empty() && program.IssuesPass(name)) pass_call = name;
        if (program.ChecksInterrupt(name)) checked = true;
      }
      if (pass_call.empty() || checked) continue;
      out.push_back({"R2", file->path(), loop.line,
                     "loop issues render passes via '" + pass_call +
                         "' without an interrupt check; call "
                         "device->CheckInterrupt() each iteration"});
    }
  }
  return out;
}

std::vector<Diagnostic> RunR3(const Program& program) {
  std::vector<Diagnostic> out;
  for (const SourceModel* file : program.files()) {
    if (!OnDevicePath(file->path())) continue;
    const std::vector<Token>& toks = file->tokens();
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != TokenKind::kIdentifier || !toks[i + 1].Is("(")) {
        continue;
      }
      if (toks[i].text == "assert") {
        out.push_back({"R3", file->path(), toks[i].line,
                       "assert() on a device path; propagate a Status "
                       "(kInternal) instead"});
      } else if (toks[i].text == "abort") {
        out.push_back({"R3", file->path(), toks[i].line,
                       "abort() on a device path; propagate a Status "
                       "(kInternal) instead"});
      }
    }
  }
  return out;
}

std::vector<Diagnostic> RunR4(const Program& program) {
  std::vector<Diagnostic> out;
  for (const SourceModel* file : program.files()) {
    for (const ParallelForSite& site : file->parallel_fors()) {
      for (const std::string& name :
           file->CallsIn(site.args_begin, site.args_end)) {
        if (!program.ReentersPool(name)) continue;
        out.push_back({"R4", file->path(), site.line,
                       "ParallelFor body calls '" + name +
                           "', which re-enters the ThreadPool or the Device "
                           "render path (re-entrancy rule, DESIGN.md §10)"});
      }
    }
  }
  return out;
}

std::vector<Diagnostic> RunR5(const Program& program) {
  std::vector<Diagnostic> out;
  if (!program.has_metric_registry()) return out;
  for (const SourceModel* file : program.files()) {
    if (EndsWith(file->path(), "metric_names.h")) continue;
    const std::vector<Token>& toks = file->tokens();
    for (size_t i = 0; i + 2 < toks.size(); ++i) {
      if (toks[i].kind != TokenKind::kIdentifier) continue;
      const std::string& fn = toks[i].text;
      // Tracer::Counter() track names double as metric names, so profile
      // counter tracks face the same registration requirement.
      if (fn != "counter" && fn != "gauge" && fn != "histogram" &&
          fn != "Counter") {
        continue;
      }
      if (!toks[i + 1].Is("(") || toks[i + 2].kind != TokenKind::kString) {
        continue;
      }
      const std::string& name = toks[i + 2].text;
      // A '+' after the literal means a runtime suffix is appended
      // ("executor." + op); further arguments (Tracer::Counter's value)
      // leave the name itself static.
      const bool dynamic = i + 3 < toks.size() && toks[i + 3].Is("+");
      if (program.MetricRegistered(name, dynamic)) continue;
      out.push_back(
          {"R5", file->path(), toks[i + 2].line,
           "metric name \"" + name + (dynamic ? "…\"" : "\"") +
               " is not in src/common/metric_names.h; register it there "
               "so dashboards track it" +
               (dynamic ? " (dynamic suffixes need a '*' entry)" : "")});
    }
  }
  return out;
}

std::vector<Diagnostic> RunR7(const Program& program) {
  std::vector<Diagnostic> out;
  for (const SourceModel* file : program.files()) {
    if (IsMutexWrapper(file->path())) continue;
    // R7a: guard coverage in mutex-owning classes.
    for (const ClassInfo& cls : file->classes()) {
      if (!cls.owns_mutex) continue;
      for (const MemberField& f : cls.fields) {
        if (f.is_sync || f.is_static_const || f.guarded ||
            f.lock_free_marked) {
          continue;
        }
        out.push_back(
            {"R7", file->path(), f.line,
             "field '" + f.name + "' of mutex-owning class '" + cls.name +
                 "' is neither GUARDED_BY-annotated nor justified with "
                 "'// lint: lock-free (reason)'"});
      }
    }
    // R7b: naked .lock()/.unlock() calls. Scoped holders may be released
    // early (their names say so: execute_lock.unlock()), but raw mutexes
    // must go through MutexLock / std::lock_guard.
    for (const NakedLockCall& c : file->naked_locks()) {
      if (Lowercase(c.receiver).find("lock") != std::string::npos) continue;
      out.push_back({"R7", file->path(), c.line,
                     "naked ." + c.method + "() on '" +
                         (c.receiver.empty() ? "<expr>" : c.receiver) +
                         "'; use a scoped holder (MutexLock) so the "
                         "capability analysis sees the release"});
    }
  }
  return out;
}

std::vector<Diagnostic> RunR8(const Program& program) {
  std::vector<Diagnostic> out;
  for (const SourceModel* file : program.files()) {
    if (IsMutexWrapper(file->path())) continue;
    const int held = LockLevelOf(file->path());
    for (const LockSite& site : file->lock_sites()) {
      if (site.adopt) continue;
      const std::set<std::string> calls =
          file->CallsIn(site.region_begin, site.region_end);
      if (held != kUnleveled) {
        // Out-of-order acquisition: anything reached from this locked
        // region that (transitively) takes a lock at an *earlier* level
        // inverts the declared order and can deadlock against a thread
        // walking the order forwards.
        for (const std::string& name : calls) {
          const int acquired = program.MinAcquireLevel(name);
          if (acquired >= held) continue;
          out.push_back(
              {"R8", file->path(), site.line,
               "locked region (level " + std::to_string(held) + ") calls '" +
                   name + "', which acquires a level-" +
                   std::to_string(acquired) +
                   " lock; the declared order (DESIGN.md §12) runs "
                   "admission(0) -> session(1) -> catalog(2) -> device(3) "
                   "-> pool(4) -> telemetry(5)"});
        }
      }
      // Same-file nesting: two scoped acquisitions in one file are the
      // same level by construction, and the registry orders levels
      // strictly — no two locks of one subsystem may nest.
      for (const LockSite& inner : file->lock_sites()) {
        if (inner.adopt || inner.decl_token < site.region_begin ||
            inner.decl_token >= site.region_end) {
          continue;
        }
        out.push_back({"R8", file->path(), inner.line,
                       "scoped lock acquired while a " + site.holder +
                           " from line " + std::to_string(site.line) +
                           " is still held; same-subsystem locks must not "
                           "nest"});
      }
      // Listener discipline: user-supplied hooks must run after release
      // (they may re-enter the subsystem -- snapshot the listener list
      // under the lock and invoke the copies outside it).
      for (const std::string& name : calls) {
        if (!IsListenerInvocation(name)) continue;
        out.push_back({"R8", file->path(), site.line,
                       "locked region invokes '" + name +
                           "'; snapshot listeners under the lock and call "
                           "them after release (re-entrant hooks deadlock)"});
      }
    }
  }
  return out;
}

namespace {

/// Resolves `name` as a local lambda (`auto name = [...](...) {...}`) in
/// `file` and returns its body token range, or {0,0} when `name` is not a
/// lambda. Lets R9 see through `ParallelFor(bands, run_band)`.
std::pair<size_t, size_t> LambdaBodyOf(const SourceModel& file,
                                       const std::string& name) {
  const std::vector<Token>& toks = file.tokens();
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!toks[i].IsIdent(name) || !toks[i + 1].Is("=") ||
        !toks[i + 2].Is("[")) {
      continue;
    }
    size_t j = file.MatchForward(i + 2) + 1;  // past the capture list
    if (j < toks.size() && toks[j].Is("(")) {
      j = file.MatchForward(j) + 1;  // past the parameter list
    }
    while (j < toks.size() && !toks[j].Is("{") && !toks[j].Is(";")) {
      ++j;  // mutable / noexcept / -> return-type
    }
    if (j >= toks.size() || !toks[j].Is("{")) return {0, 0};
    return {j + 1, file.MatchForward(j)};
  }
  return {0, 0};
}

void CheckKernelRange(const Program& program, const SourceModel& file,
                      const std::set<std::string>& shadowed, int line,
                      std::string_view what, size_t begin, size_t end,
                      std::vector<Diagnostic>* out) {
  for (const std::string& ident : file.IdentifiersIn(begin, end)) {
    if (program.guarded_fields().count(ident) == 0) continue;
    if (shadowed.count(ident) != 0) continue;
    out->push_back(
        {"R9", file.path(), line,
         std::string(what) + " touches GUARDED_BY field '" + ident +
             "'; band-parallel kernels must not reach engine locks "
             "(workers synchronize through the pool protocol alone)"});
  }
}

}  // namespace

std::vector<Diagnostic> RunR9(const Program& program) {
  std::vector<Diagnostic> out;
  for (const SourceModel* file : program.files()) {
    // Same-named unguarded fields declared in this .h/.cc pair shadow the
    // program-wide guarded set (Device::counters_ is not Tracer::counters_).
    const std::set<std::string>& shadowed =
        program.UnguardedFieldsForStem(PathStem(file->path()));
    for (const ParallelForSite& site : file->parallel_fors()) {
      CheckKernelRange(program, *file, shadowed, site.line,
                       "ParallelFor body", site.args_begin, site.args_end,
                       &out);
      // A worker passed by name: resolve the local lambda and scan its
      // body too.
      for (size_t i = site.args_begin; i < site.args_end; ++i) {
        const Token& t = file->tokens()[i];
        if (t.kind != TokenKind::kIdentifier ||
            file->tokens()[i + 1].Is("(")) {
          continue;
        }
        const auto [begin, end] = LambdaBodyOf(*file, t.text);
        if (begin == end) continue;
        CheckKernelRange(program, *file, shadowed, site.line,
                         "ParallelFor worker '" + t.text + "'", begin, end,
                         &out);
      }
    }
    // The pixel engine's band kernels, named by convention: every
    // *RowKernel / *Rows function under src/gpu runs inside a band.
    if (file->path().find("src/gpu/") == std::string::npos) continue;
    for (const FunctionDef& f : file->functions()) {
      if (!EndsWith(f.name, "RowKernel") && !EndsWith(f.name, "Rows")) {
        continue;
      }
      CheckKernelRange(program, *file, shadowed, f.line, f.name,
                       f.body_begin + 1, f.body_end, &out);
    }
  }
  return out;
}

std::vector<Diagnostic> RunAllRules(const Program& program) {
  std::vector<Diagnostic> all;
  for (auto* run :
       {RunR1, RunR2, RunR3, RunR4, RunR5, RunR7, RunR8, RunR9}) {
    std::vector<Diagnostic> d = run(program);
    all.insert(all.end(), d.begin(), d.end());
  }
  return all;
}

const std::map<std::string, std::string>& RuleDescriptions() {
  static const std::map<std::string, std::string> kRules = {
      {"R1",
       "every Status/Result return value is consumed, and fallible "
       "declarations in src/{common,gpu,core,sql} headers are [[nodiscard]]"},
      {"R2",
       "loops that issue render passes (src/core, src/gpu) check "
       "CheckInterrupt so cancellation and deadlines stay responsive"},
      {"R3",
       "no assert()/abort() on device paths (src/gpu, src/core); faults "
       "propagate as Status"},
      {"R4",
       "ParallelFor bodies never re-enter the ThreadPool or the Device "
       "render path"},
      {"R5",
       "every literal metric name -- including Tracer::Counter() track "
       "names -- is registered in src/common/metric_names.h"},
      {"R7",
       "every mutable field of a mutex-owning class is GUARDED_BY-annotated "
       "or justified '// lint: lock-free (reason)'; naked .lock()/.unlock() "
       "is banned in favor of scoped holders"},
      {"R8",
       "locked regions respect the declared lock order -- admission(0) -> "
       "session(1) -> catalog(2) -> device(3) -> pool(4) -> telemetry(5) -- "
       "never nest same-subsystem locks, and never invoke listeners or "
       "callbacks under a lock"},
      {"R9",
       "band-parallel kernels (src/gpu *RowKernel/*Rows functions, "
       "ParallelFor bodies) never "
       "touch GUARDED_BY fields; workers synchronize only through the "
       "pool protocol"},
  };
  return kRules;
}

}  // namespace gpulint
