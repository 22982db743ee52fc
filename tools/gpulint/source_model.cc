#include "tools/gpulint/source_model.h"

#include <algorithm>

namespace gpulint {

namespace {

bool IsControlKeyword(const std::string& t) {
  static const std::set<std::string> kKeywords = {
      "if",     "for",    "while",   "switch", "do",     "return",
      "sizeof", "alignof", "decltype", "new",   "delete", "throw",
      "catch",  "else",   "case",
  };
  return kKeywords.count(t) != 0;
}

bool IsDeclSpecifier(const std::string& t) {
  static const std::set<std::string> kSpecifiers = {
      "static", "virtual", "inline", "constexpr", "explicit", "friend",
      "extern",
  };
  return kSpecifiers.count(t) != 0;
}

}  // namespace

SourceModel::SourceModel(std::string path, std::string_view source)
    : path_(std::move(path)), tokens_(Tokenize(source)) {
  ScanInlineSuppressions(source);
  ScanLockFreeMarkers(source);
  ScanStructure();
  ScanClasses();
  ScanLockDiscipline();
}

void SourceModel::ScanLockFreeMarkers(std::string_view source) {
  // Raw-text scan, like the inline suppressions: the lexer throws comments
  // away, but R7's justification marker lives in one. A line is
  // comment-only when its first non-blank characters open a comment;
  // markers reach a field through any contiguous run of such lines above
  // its declaration.
  int line = 1;
  size_t pos = 0;
  while (pos < source.size()) {
    size_t eol = source.find('\n', pos);
    if (eol == std::string_view::npos) eol = source.size();
    const std::string_view text = source.substr(pos, eol - pos);
    if (text.find("lint: lock-free") != std::string_view::npos) {
      lock_free_lines_.insert(line);
    }
    const size_t first = text.find_first_not_of(" \t");
    if (first != std::string_view::npos && first + 1 < text.size() &&
        text[first] == '/' &&
        (text[first + 1] == '/' || text[first + 1] == '*')) {
      comment_lines_.insert(line);
    }
    pos = eol + 1;
    ++line;
  }
}

bool SourceModel::LockFreeMarkedAt(int line) const {
  if (lock_free_lines_.count(line) != 0) return true;
  // Walk up through the comment block directly above the declaration.
  int l = line - 1;
  while (l >= 1 && comment_lines_.count(l) != 0) {
    if (lock_free_lines_.count(l) != 0) return true;
    --l;
  }
  return false;
}

void SourceModel::ScanInlineSuppressions(std::string_view source) {
  // Raw-text scan (the lexer throws comments away): every line containing
  // "gpulint-allow(R1,R2) reason" maps those rule ids to that line. The
  // reason is whatever follows the ')' besides blanks and a comment closer.
  int line = 1;
  size_t pos = 0;
  while (pos < source.size()) {
    size_t eol = source.find('\n', pos);
    if (eol == std::string_view::npos) eol = source.size();
    const std::string_view text = source.substr(pos, eol - pos);
    const size_t mark = text.find("gpulint-allow(");
    if (mark != std::string_view::npos) {
      const size_t open = mark + 14;
      const size_t close = text.find(')', open);
      if (close != std::string_view::npos) {
        const bool has_reason = text.find_first_not_of(" \t*/", close + 1) !=
                                std::string_view::npos;
        std::string id;
        for (size_t k = open; k <= close; ++k) {
          const char c = k < close ? text[k] : ',';
          if (c == ',' || c == ' ') {
            if (!id.empty()) {
              inline_allows_.push_back({line, id, has_reason});
            }
            id.clear();
          } else {
            id += c;
          }
        }
      }
    }
    pos = eol + 1;
    ++line;
  }
}

const InlineAllow* SourceModel::FindInlineAllow(const std::string& rule,
                                                int line) const {
  for (const InlineAllow& allow : inline_allows_) {
    if (allow.has_reason && allow.rule == rule &&
        (allow.line == line || allow.line == line - 1)) {
      return &allow;
    }
  }
  return nullptr;
}

size_t SourceModel::MatchForward(size_t open) const {
  const std::string& o = tokens_[open].text;
  const std::string close = o == "(" ? ")" : o == "{" ? "}" : "]";
  int depth = 0;
  for (size_t i = open; i < tokens_.size(); ++i) {
    if (tokens_[i].kind != TokenKind::kPunct) continue;
    if (tokens_[i].text == o) ++depth;
    if (tokens_[i].text == close && --depth == 0) return i;
  }
  return tokens_.size();
}

std::set<std::string> SourceModel::CallsIn(size_t begin, size_t end) const {
  std::set<std::string> calls;
  for (size_t i = begin; i + 1 < end; ++i) {
    if (tokens_[i].kind == TokenKind::kIdentifier &&
        tokens_[i + 1].Is("(") && !IsControlKeyword(tokens_[i].text)) {
      calls.insert(tokens_[i].text);
    }
  }
  return calls;
}

std::set<std::string> SourceModel::IdentifiersIn(size_t begin,
                                                 size_t end) const {
  std::set<std::string> idents;
  for (size_t i = begin; i < end && i < tokens_.size(); ++i) {
    if (tokens_[i].kind == TokenKind::kIdentifier &&
        !IsControlKeyword(tokens_[i].text)) {
      idents.insert(tokens_[i].text);
    }
  }
  return idents;
}

void SourceModel::RecordFallibleDecl(size_t type_token, size_t name_token) {
  FallibleDecl d;
  d.name = tokens_[name_token].text;
  d.line = tokens_[name_token].line;
  d.returns_result = tokens_[type_token].IsIdent("Result");
  // Walk left over declaration specifiers and attributes looking for
  // [[nodiscard]]. Attributes lex as '[' '[' ident ... ']' ']'.
  size_t p = type_token;
  while (p > 0) {
    const Token& prev = tokens_[p - 1];
    if (prev.kind == TokenKind::kIdentifier && IsDeclSpecifier(prev.text)) {
      --p;
      continue;
    }
    if (prev.Is("]") && p >= 2 && tokens_[p - 2].Is("]")) {
      // Scan back to the '[' '[' opener, collecting attribute names.
      size_t q = p - 2;
      int depth = 2;
      while (q > 0 && depth > 0) {
        --q;
        if (tokens_[q].Is("]")) ++depth;
        if (tokens_[q].Is("[")) --depth;
      }
      for (size_t k = q; k < p; ++k) {
        if (tokens_[k].IsIdent("nodiscard")) d.nodiscard = true;
      }
      p = q;
      continue;
    }
    break;
  }
  fallible_decls_.push_back(std::move(d));
}

void SourceModel::RecordFunction(size_t name_token, size_t body_open) {
  FunctionDef f;
  f.name = tokens_[name_token].text;
  f.line = tokens_[name_token].line;
  if (name_token >= 2 && tokens_[name_token - 1].Is("::") &&
      tokens_[name_token - 2].kind == TokenKind::kIdentifier) {
    f.qualifier = tokens_[name_token - 2].text;
  }
  f.body_begin = body_open;
  f.body_end = MatchForward(body_open);
  f.calls = CallsIn(f.body_begin + 1, f.body_end);
  ScanBody(f.body_begin + 1, f.body_end);
  functions_.push_back(std::move(f));
}

void SourceModel::ScanBody(size_t begin, size_t end) {
  for (size_t i = begin; i < end && i < tokens_.size(); ++i) {
    const Token& t = tokens_[i];

    // --- Loops -----------------------------------------------------------
    if (t.kind == TokenKind::kIdentifier &&
        (t.text == "for" || t.text == "while" || t.text == "do")) {
      size_t body_start;
      if (t.text == "do") {
        body_start = i + 1;
      } else {
        if (i + 1 >= end || !tokens_[i + 1].Is("(")) continue;
        const size_t close = MatchForward(i + 1);
        if (close >= end) continue;
        body_start = close + 1;
        // The while of a do-while: body resolves to ';', no calls, ignored.
      }
      Loop loop;
      loop.line = t.line;
      loop.body_begin = body_start;
      if (body_start < end && tokens_[body_start].Is("{")) {
        loop.body_end = std::min(MatchForward(body_start), end);
      } else {
        // Single-statement body: scan to the ';' at balanced depth.
        size_t j = body_start;
        int paren = 0, brace = 0;
        while (j < end) {
          const Token& u = tokens_[j];
          if (u.Is("(")) ++paren;
          if (u.Is(")")) --paren;
          if (u.Is("{")) ++brace;
          if (u.Is("}")) --brace;
          if (paren < 0 || brace < 0) break;
          if (u.Is(";") && paren == 0 && brace == 0) break;
          ++j;
        }
        loop.body_end = j;
      }
      loops_.push_back(loop);
      continue;
    }

    // --- ParallelFor sites ----------------------------------------------
    if (t.IsIdent("ParallelFor") && i + 1 < end && tokens_[i + 1].Is("(")) {
      ParallelForSite site;
      site.line = t.line;
      site.args_begin = i + 2;
      site.args_end = std::min(MatchForward(i + 1), end);
      parallel_fors_.push_back(site);
      continue;
    }

    // --- Discarded calls -------------------------------------------------
    // A call is a candidate discard when it begins a statement: the
    // previous token is one of ; { } ) else do :, or it sits under a
    // (void) cast.
    if (t.kind != TokenKind::kIdentifier || IsControlKeyword(t.text)) {
      continue;
    }
    bool void_cast = false;
    size_t stmt_first = i;
    if (i >= 3 && tokens_[i - 1].Is(")") && tokens_[i - 2].IsIdent("void") &&
        tokens_[i - 3].Is("(")) {
      void_cast = true;
      stmt_first = i - 3;
    }
    if (stmt_first == 0) continue;  // bodies always open with '{'
    const Token& prev = tokens_[stmt_first - 1];
    const bool stmt_start = prev.Is(";") || prev.Is("{") || prev.Is("}") ||
                            prev.Is(")") || prev.Is(":") ||
                            prev.IsIdent("else") || prev.IsIdent("do");
    if (!stmt_start) continue;

    // Parse the access chain: ident (:: ident)* then (('.'|'->') ident)*.
    size_t j = i;
    size_t callee = i;
    while (j + 2 < end && tokens_[j + 1].Is("::") &&
           tokens_[j + 2].kind == TokenKind::kIdentifier) {
      j += 2;
      callee = j;
    }
    while (j + 2 < end &&
           (tokens_[j + 1].Is(".") || tokens_[j + 1].Is("->")) &&
           tokens_[j + 2].kind == TokenKind::kIdentifier) {
      j += 2;
      callee = j;
    }
    if (j + 1 >= end || !tokens_[j + 1].Is("(")) continue;
    const size_t close = MatchForward(j + 1);
    if (close + 1 >= tokens_.size()) continue;
    if (!tokens_[close + 1].Is(";")) continue;  // result is consumed
    DiscardedCall dc;
    dc.callee = tokens_[callee].text;
    dc.line = tokens_[callee].line;
    dc.void_cast = void_cast;
    discarded_calls_.push_back(std::move(dc));
  }
}

void SourceModel::ScanStructure() {
  size_t i = 0;
  const size_t n = tokens_.size();
  while (i < n) {
    const Token& t = tokens_[i];

    // Skip template parameter lists so their '=' defaults and '<' '>' never
    // confuse the declaration scan.
    if (t.IsIdent("template") && i + 1 < n && tokens_[i + 1].Is("<")) {
      int depth = 0;
      size_t j = i + 1;
      while (j < n) {
        if (tokens_[j].Is("<")) ++depth;
        if (tokens_[j].Is(">")) {
          if (--depth == 0) break;
        }
        ++j;
      }
      i = j + 1;
      continue;
    }

    // Brace initializers at declaration scope (constant tables etc.):
    // '=' followed eventually by '{' — skip to the statement's ';'.
    if (t.Is("=")) {
      size_t j = i + 1;
      int paren = 0, brace = 0;
      while (j < n) {
        const Token& u = tokens_[j];
        if (u.Is("(")) ++paren;
        if (u.Is(")")) --paren;
        if (u.Is("{")) ++brace;
        if (u.Is("}")) --brace;
        // brace < 0: we ran off the end of the enclosing scope (an
        // enumerator's "= value," has no ';' of its own) — stop there.
        if (paren < 0 || brace < 0) break;
        if (u.Is(";") && paren == 0 && brace == 0) break;
        ++j;
      }
      i = j + 1;
      continue;
    }

    if (t.kind != TokenKind::kIdentifier || IsControlKeyword(t.text) ||
        i + 1 >= n || !tokens_[i + 1].Is("(")) {
      ++i;
      continue;
    }

    // identifier '(' at declaration scope: a function declaration,
    // definition, or a file-scope macro invocation.
    const size_t name_tok = i;
    const size_t close = MatchForward(i + 1);
    if (close >= n) {
      ++i;
      continue;
    }

    // Identify the return type to the left (walking over a Name:: chain).
    size_t chain_start = name_tok;
    while (chain_start >= 2 && tokens_[chain_start - 1].Is("::") &&
           tokens_[chain_start - 2].kind == TokenKind::kIdentifier) {
      chain_start -= 2;
    }
    size_t type_tok = n;  // n = "not fallible"
    if (chain_start > 0) {
      const size_t r = chain_start - 1;
      if (tokens_[r].IsIdent("Status")) {
        type_tok = r;
      } else if (tokens_[r].Is(">") || tokens_[r].Is(">>")) {
        // Walk back to the matching '<'. ">>" closes two template levels
        // (the lexer max-munches "vector<float>>" into one shift token).
        int depth = 0;
        size_t q = r + 1;
        while (q > 0) {
          --q;
          if (tokens_[q].Is(">")) ++depth;
          if (tokens_[q].Is(">>")) depth += 2;
          if (tokens_[q].Is("<") && --depth == 0) break;
        }
        if (depth == 0 && q > 0 && tokens_[q - 1].IsIdent("Result")) {
          type_tok = q - 1;
        }
      }
    }

    // Look past the parameter list for what this is.
    size_t k = close + 1;
    while (k < n) {
      const Token& u = tokens_[k];
      if (u.IsIdent("const") || u.IsIdent("noexcept") ||
          u.IsIdent("override") || u.IsIdent("final") || u.Is("&") ||
          u.Is("&&")) {
        ++k;
        if (u.IsIdent("noexcept") && k < n && tokens_[k].Is("(")) {
          k = MatchForward(k) + 1;
        }
        continue;
      }
      break;
    }

    if (k < n && tokens_[k].Is("{")) {
      if (type_tok != n) RecordFallibleDecl(type_tok, name_tok);
      RecordFunction(name_tok, k);
      i = MatchForward(k) + 1;
      continue;
    }
    if (k < n && tokens_[k].Is(":")) {
      // Constructor initializer list: ident, then (...) or {...}, then ','.
      size_t j = k + 1;
      while (j < n) {
        if (tokens_[j].Is("{")) {
          // Either an init-brace or — if preceded by an identifier's
          // initializer — the body. Distinguish: an initializer brace is
          // directly preceded by an identifier; the body follows ')' or '}'.
          const Token& p = tokens_[j - 1];
          if (p.kind == TokenKind::kIdentifier) {
            j = MatchForward(j) + 1;
            continue;
          }
          break;
        }
        if (tokens_[j].Is("(")) {
          j = MatchForward(j) + 1;
          continue;
        }
        ++j;
      }
      if (j < n && tokens_[j].Is("{")) {
        RecordFunction(name_tok, j);
        i = MatchForward(j) + 1;
        continue;
      }
      i = close + 1;
      continue;
    }
    if (k < n && (tokens_[k].Is(";") || tokens_[k].Is("="))) {
      if (type_tok != n) RecordFallibleDecl(type_tok, name_tok);
      i = close + 1;
      continue;
    }
    i = name_tok + 1;
  }
}

namespace {

/// The thread-safety annotation macros that may trail a member declaration.
bool IsFieldAnnotation(const std::string& t) {
  static const std::set<std::string> kAnnotations = {
      "GUARDED_BY",     "PT_GUARDED_BY",  "ACQUIRED_BEFORE",
      "ACQUIRED_AFTER",
  };
  return kAnnotations.count(t) != 0;
}

/// Tokens that mean "this class-body statement is not a data member".
bool IsNonFieldKeyword(const std::string& t) {
  static const std::set<std::string> kKeywords = {
      "using",  "typedef", "friend",        "operator",
      "enum",   "template", "static_assert", "public",
      "private", "protected", "class",       "struct",
      "union",
  };
  return kKeywords.count(t) != 0;
}

}  // namespace

void SourceModel::ScanClasses() {
  const size_t n = tokens_.size();
  for (size_t i = 0; i + 1 < n; ++i) {
    const Token& t = tokens_[i];
    if (!t.IsIdent("class") && !t.IsIdent("struct")) continue;
    if (i > 0 && tokens_[i - 1].IsIdent("enum")) continue;  // enum class
    // The class name is the last identifier before the base-clause ':',
    // the body '{', or — for a forward declaration — the ';'. Attribute
    // macros (CAPABILITY("mutex")) lex as ident + (...) and are walked over.
    std::string name;
    int name_line = 0;
    size_t j = i + 1;
    while (j < n) {
      const Token& u = tokens_[j];
      if (u.Is(";") || u.Is("{") || u.Is(":")) break;
      if (u.Is("(")) {
        j = MatchForward(j) + 1;
        continue;
      }
      if (u.kind == TokenKind::kIdentifier && !u.IsIdent("final") &&
          !u.IsIdent("alignas")) {
        name = u.text;
        name_line = u.line;
      }
      ++j;
    }
    if (j >= n || tokens_[j].Is(";") || name.empty()) continue;
    if (tokens_[j].Is(":")) {  // skip the base clause
      while (j < n && !tokens_[j].Is("{")) ++j;
    }
    if (j >= n || !tokens_[j].Is("{")) continue;
    const size_t body_end = MatchForward(j);
    ScanClassBody(name, name_line, j + 1, body_end);
    // Do not skip past the body: nested classes are found by the same
    // outer loop (ScanClassBody skips them when collecting members).
  }
}

void SourceModel::ScanClassBody(const std::string& class_name, int class_line,
                                size_t body_begin, size_t body_end) {
  ClassInfo cls;
  cls.name = class_name;
  cls.line = class_line;
  std::vector<size_t> stmt;  // token indices of the current statement
  size_t i = body_begin;
  while (i < body_end && i < tokens_.size()) {
    const Token& t = tokens_[i];
    if (t.Is("{")) {
      // An init-brace directly follows the field name; anything else
      // (member-function body, nested class, in-class initializer list)
      // opens a block to skip. Either way the braced range contributes no
      // member tokens.
      const bool init_brace =
          !stmt.empty() &&
          tokens_[stmt.back()].kind == TokenKind::kIdentifier &&
          !IsNonFieldKeyword(tokens_[stmt.back()].text);
      const size_t close = MatchForward(i);
      if (!init_brace) stmt.clear();
      i = close + 1;
      continue;
    }
    if (t.Is(";")) {
      RecordMemberField(&cls, stmt);
      stmt.clear();
      ++i;
      continue;
    }
    if (t.Is(":") && stmt.size() == 1 &&
        (tokens_[stmt[0]].IsIdent("public") ||
         tokens_[stmt[0]].IsIdent("private") ||
         tokens_[stmt[0]].IsIdent("protected"))) {
      stmt.clear();
      ++i;
      continue;
    }
    stmt.push_back(i);
    ++i;
  }
  for (const MemberField& f : cls.fields) {
    if (f.is_mutex) cls.owns_mutex = true;
  }
  classes_.push_back(std::move(cls));
}

void SourceModel::RecordMemberField(ClassInfo* cls,
                                    const std::vector<size_t>& stmt) {
  if (stmt.empty()) return;
  bool guarded = false;
  std::vector<size_t> prefix;  // stmt minus annotations, cut at '='
  for (size_t k = 0; k < stmt.size(); ++k) {
    const Token& t = tokens_[stmt[k]];
    if (t.kind == TokenKind::kIdentifier && IsNonFieldKeyword(t.text)) return;
    if (t.kind == TokenKind::kIdentifier && IsFieldAnnotation(t.text) &&
        k + 1 < stmt.size() && tokens_[stmt[k + 1]].Is("(")) {
      if (t.text == "GUARDED_BY" || t.text == "PT_GUARDED_BY") guarded = true;
      // Skip the annotation's argument list.
      int depth = 0;
      ++k;
      while (k < stmt.size()) {
        if (tokens_[stmt[k]].Is("(")) ++depth;
        if (tokens_[stmt[k]].Is(")") && --depth == 0) break;
        ++k;
      }
      continue;
    }
    if (t.Is("=")) break;
    prefix.push_back(stmt[k]);
  }
  if (prefix.empty()) return;

  // Walk the declaration prefix tracking template-argument depth; a '('
  // outside template arguments makes this a function declaration, not a
  // field. The lexer max-munches ">>" (closes two levels).
  int angle = 0;
  size_t name_tok = tokens_.size();
  bool is_static_const = false;
  bool saw_mutex_type = false;
  bool saw_sync_type = false;
  bool saw_ptr_or_ref = false;
  for (size_t k = 0; k < prefix.size(); ++k) {
    const Token& t = tokens_[prefix[k]];
    if (t.Is("<")) ++angle;
    if (t.Is(">")) angle = angle > 0 ? angle - 1 : 0;
    if (t.Is(">>")) angle = angle > 1 ? angle - 2 : 0;
    if (angle > 0) {
      // std::unique_ptr<std::mutex> and friends: the capability lives on
      // the heap object, not in this class — sync-typed but not owning.
      if (t.IsIdent("mutex") || t.IsIdent("Mutex") ||
          t.IsIdent("condition_variable") || t.IsIdent("CondVar") ||
          t.IsIdent("unique_lock") || t.IsIdent("lock_guard")) {
        saw_sync_type = true;
      }
      continue;
    }
    if (t.Is("(")) return;  // function declaration
    if (t.Is("*") || t.Is("&") || t.Is("&&")) saw_ptr_or_ref = true;
    if (t.IsIdent("static") || t.IsIdent("constexpr") || t.IsIdent("const")) {
      is_static_const = true;
    }
    if (t.IsIdent("mutex") || t.IsIdent("Mutex")) {
      saw_sync_type = true;
      if (!saw_ptr_or_ref) saw_mutex_type = true;
    }
    if (t.IsIdent("condition_variable") || t.IsIdent("CondVar") ||
        t.IsIdent("MutexLock") || t.IsIdent("unique_lock") ||
        t.IsIdent("lock_guard") || t.IsIdent("once_flag")) {
      saw_sync_type = true;
    }
    if (t.kind == TokenKind::kIdentifier) name_tok = prefix[k];
  }
  if (name_tok == tokens_.size()) return;
  // The name must be the last identifier, with only array extents after it.
  const std::string& name = tokens_[name_tok].text;
  if (name.empty() || IsControlKeyword(name)) return;
  // A trailing type keyword is a malformed/abstract declaration, not a
  // field ("int;" does not happen; "Mutex mu_" does).
  if (name == "mutex" || name == "int" || name == "double" ||
      name == "float" || name == "bool" || name == "char" ||
      name == "void" || name == "uint64_t" || name == "size_t") {
    return;
  }

  MemberField f;
  f.name = name;
  f.line = tokens_[name_tok].line;
  f.guarded = guarded;
  f.lock_free_marked = LockFreeMarkedAt(f.line);
  f.is_sync = saw_sync_type;
  f.is_static_const = is_static_const;
  // "Owns a mutex": the *last* type mention decides, and the declared name
  // must not itself be the mutex type token.
  f.is_mutex = saw_mutex_type && name != "Mutex" && name != "mutex" &&
               !saw_ptr_or_ref;
  cls->fields.push_back(std::move(f));
}

void SourceModel::ScanLockDiscipline() {
  const size_t n = tokens_.size();
  for (size_t i = 0; i + 1 < n; ++i) {
    const Token& t = tokens_[i];

    // --- Naked .lock()/.unlock() calls ----------------------------------
    if ((t.Is(".") || t.Is("->")) && i + 3 < n &&
        (tokens_[i + 1].IsIdent("lock") || tokens_[i + 1].IsIdent("unlock")) &&
        tokens_[i + 2].Is("(") && tokens_[i + 3].Is(")")) {
      NakedLockCall c;
      c.line = tokens_[i + 1].line;
      c.method = tokens_[i + 1].text;
      if (i > 0 && tokens_[i - 1].kind == TokenKind::kIdentifier) {
        c.receiver = tokens_[i - 1].text;
      }
      naked_locks_.push_back(std::move(c));
      continue;
    }

    // --- Scoped-holder acquisition sites --------------------------------
    // MutexLock name(...);  |  std::lock_guard<...> name(...);  | likewise
    // unique_lock / scoped_lock. The declaring token must start a
    // statement so member declarations and parameter types do not match.
    const bool holder_kw = t.IsIdent("MutexLock") ||
                           t.IsIdent("lock_guard") ||
                           t.IsIdent("unique_lock") ||
                           t.IsIdent("scoped_lock");
    if (!holder_kw) continue;
    size_t j = i + 1;
    if (j < n && tokens_[j].Is("<")) {  // template argument list
      int depth = 0;
      while (j < n) {
        if (tokens_[j].Is("<")) ++depth;
        if (tokens_[j].Is(">") && --depth == 0) break;
        if (tokens_[j].Is(">>") && (depth -= 2) <= 0) break;
        ++j;
      }
      ++j;
    }
    if (j + 1 >= n || tokens_[j].kind != TokenKind::kIdentifier ||
        !tokens_[j + 1].Is("(")) {
      continue;
    }
    const size_t args_close = MatchForward(j + 1);
    if (args_close >= n || args_close + 1 >= n ||
        !tokens_[args_close + 1].Is(";")) {
      continue;
    }
    LockSite site;
    site.line = t.line;
    site.holder = t.text;
    site.decl_token = i;
    site.region_begin = args_close + 2;
    for (size_t a = j + 2; a < args_close; ++a) {
      if (tokens_[a].IsIdent("adopt_lock")) site.adopt = true;
    }
    // The region ends at the '}' closing the innermost enclosing block.
    int depth = 0;
    size_t e = site.region_begin;
    while (e < n) {
      if (tokens_[e].Is("{")) ++depth;
      if (tokens_[e].Is("}") && --depth < 0) break;
      ++e;
    }
    site.region_end = e;
    for (const FunctionDef& f : functions_) {
      if (f.body_begin < i && i < f.body_end) {
        site.function = f.name;
        break;
      }
    }
    lock_sites_.push_back(std::move(site));
  }
}

}  // namespace gpulint
