#ifndef GPUDB_TOOLS_GPULINT_SOURCE_MODEL_H_
#define GPUDB_TOOLS_GPULINT_SOURCE_MODEL_H_

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "tools/gpulint/lexer.h"

namespace gpulint {

/// A function definition discovered in a file: its (unqualified) name, the
/// token range of its body, and every name it directly calls. gpulint's
/// declaration model is deliberately name-based — overloads and same-named
/// methods on different classes merge — which keeps the analyzer small; the
/// rules that consume it are written to stay useful under that merging (see
/// rules.cc).
struct FunctionDef {
  std::string name;       // "RenderInternal" (qualifier stripped)
  std::string qualifier;  // "Device" for Device::RenderInternal, else ""
  int line = 0;
  size_t body_begin = 0;  // index of '{'
  size_t body_end = 0;    // index of matching '}'
  std::set<std::string> calls;  // direct callee names within the body
};

/// A declaration (or definition) whose return type is Status or Result<>,
/// found at class/namespace scope. Used by R1 both to build the registry of
/// fallible APIs and to check [[nodiscard]] coverage in headers.
struct FallibleDecl {
  std::string name;
  int line = 0;
  bool nodiscard = false;
  bool returns_result = false;  // Result<...> vs plain Status
};

/// A loop statement inside some function body.
struct Loop {
  int line = 0;           // line of the for/while/do keyword
  size_t body_begin = 0;  // first token index of the body
  size_t body_end = 0;    // one-past-last token index of the body
};

/// A call expression whose result is discarded: either a bare
/// `chain.Callee(...);` expression statement or a `(void)` cast of one.
struct DiscardedCall {
  std::string callee;
  int line = 0;
  bool void_cast = false;
};

/// One `ParallelFor(...)` call site with the token range of its arguments
/// (which contain the worker lambda).
struct ParallelForSite {
  int line = 0;
  size_t args_begin = 0;  // index just after '('
  size_t args_end = 0;    // index of matching ')'
};

/// One data member of a class/struct declared in this file. Member
/// functions, using-declarations, and nested types are not fields.
struct MemberField {
  std::string name;  // "next_index_"
  int line = 0;
  bool guarded = false;           // carries GUARDED_BY(...)/PT_GUARDED_BY(...)
  bool lock_free_marked = false;  // "// lint: lock-free" on or above the decl
  bool is_sync = false;       // mutex / condition-variable / CondVar typed
  bool is_static_const = false;   // static, constexpr, or top-level const
  bool is_mutex = false;  // a by-value Mutex / std::mutex (capability owner)
};

/// A class or struct definition with its data members. `owns_mutex` is R7's
/// trigger: a *by-value* Mutex or std::mutex member. A std::unique_ptr<
/// std::mutex> does not count (the capability lives elsewhere; see
/// DevicePool::Slot).
struct ClassInfo {
  std::string name;
  int line = 0;
  bool owns_mutex = false;
  std::vector<MemberField> fields;
};

/// A scoped-holder acquisition site (`MutexLock lock(&mu_);`,
/// `std::lock_guard<...> l(mu_);`, `std::unique_lock<...> l(mu_);`,
/// `std::scoped_lock l(mu_);`). The locked region runs from the holder
/// declaration to the closing brace of the innermost enclosing block —
/// a conservative over-approximation for holders released early.
struct LockSite {
  int line = 0;
  size_t decl_token = 0;    // token index of the holder keyword
  size_t region_begin = 0;  // token after the holder statement's ';'
  size_t region_end = 0;    // token index of the enclosing block's '}'
  bool adopt = false;       // std::adopt_lock — wraps an existing hold
  std::string holder;       // "MutexLock", "lock_guard", ...
  std::string function;     // enclosing function name ("" at file scope)
};

/// A naked `.lock()` / `.unlock()` call (R7 bans these outside the Mutex
/// wrapper itself; scoped holders named *lock* may be released early).
struct NakedLockCall {
  int line = 0;
  std::string method;    // "lock" or "unlock"
  std::string receiver;  // identifier left of the '.' / '->' ("" if complex)
};

/// One rule id of a `// gpulint-allow(Rn[,Rm]) <reason>` marker comment.
/// Only a marker with a reason after the ')' suppresses anything.
struct InlineAllow {
  int line = 0;
  std::string rule;  // "R1"
  bool has_reason = false;
};

/// Token-level model of a single file. Built once, shared by every rule.
class SourceModel {
 public:
  /// Parses `source` (the file's contents). `path` is kept for diagnostics.
  SourceModel(std::string path, std::string_view source);

  const std::string& path() const { return path_; }
  const std::vector<Token>& tokens() const { return tokens_; }
  const std::vector<FunctionDef>& functions() const { return functions_; }
  const std::vector<FallibleDecl>& fallible_decls() const {
    return fallible_decls_;
  }
  const std::vector<Loop>& loops() const { return loops_; }
  const std::vector<DiscardedCall>& discarded_calls() const {
    return discarded_calls_;
  }
  const std::vector<ParallelForSite>& parallel_fors() const {
    return parallel_fors_;
  }
  const std::vector<ClassInfo>& classes() const { return classes_; }
  const std::vector<LockSite>& lock_sites() const { return lock_sites_; }
  const std::vector<NakedLockCall>& naked_locks() const {
    return naked_locks_;
  }

  /// Every rule id of every `gpulint-allow` marker, in line order.
  const std::vector<InlineAllow>& inline_allows() const {
    return inline_allows_;
  }

  /// The marker that suppresses a `rule` diagnostic at `line`: one with a
  /// reason, carrying that rule id, on the same line or the line above.
  /// nullptr when there is none.
  const InlineAllow* FindInlineAllow(const std::string& rule, int line) const;

  /// Every callee name appearing in [begin, end): identifiers directly
  /// followed by '(' that are not control keywords.
  std::set<std::string> CallsIn(size_t begin, size_t end) const;

  /// Every identifier appearing in [begin, end), called or not (R9's
  /// "touches a guarded field" test).
  std::set<std::string> IdentifiersIn(size_t begin, size_t end) const;

  /// Index of the matching closer for the opener at `open` ('(' / '{' /
  /// '['), or tokens().size() when unbalanced.
  size_t MatchForward(size_t open) const;

 private:
  void ScanStructure();
  void ScanInlineSuppressions(std::string_view source);
  void ScanLockFreeMarkers(std::string_view source);
  void RecordFallibleDecl(size_t type_token, size_t name_token);
  void RecordFunction(size_t name_token, size_t body_open);
  void ScanBody(size_t body_begin, size_t body_end);
  void ScanClasses();
  void ScanClassBody(const std::string& class_name, int class_line,
                     size_t body_begin, size_t body_end);
  void RecordMemberField(ClassInfo* cls, const std::vector<size_t>& stmt);
  void ScanLockDiscipline();
  bool LockFreeMarkedAt(int line) const;

  std::string path_;
  std::vector<Token> tokens_;
  std::vector<FunctionDef> functions_;
  std::vector<FallibleDecl> fallible_decls_;
  std::vector<Loop> loops_;
  std::vector<DiscardedCall> discarded_calls_;
  std::vector<ParallelForSite> parallel_fors_;
  std::vector<ClassInfo> classes_;
  std::vector<LockSite> lock_sites_;
  std::vector<NakedLockCall> naked_locks_;
  std::vector<InlineAllow> inline_allows_;
  // Lines carrying a "lint: lock-free" marker, and comment-only lines
  // (markers apply through a contiguous comment block above a field).
  std::set<int> lock_free_lines_;
  std::set<int> comment_lines_;
};

}  // namespace gpulint

#endif  // GPUDB_TOOLS_GPULINT_SOURCE_MODEL_H_
