#include "src/sql/parser.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/core/pool_executor.h"
#include "src/sql/lexer.h"

namespace gpudb {
namespace sql {

namespace {

using gpu::CompareOp;
using predicate::Expr;
using predicate::ExprPtr;

/// Recursive-descent parser over the token stream. Grammar:
///
///   query      := SELECT select_item FROM identifier [WHERE or_expr] [';']
///   select_item:= '*' | COUNT '(' '*' ')' | agg '(' column ')'
///              |  KTH_LARGEST '(' column ',' number ')'
///   or_expr    := and_expr (OR and_expr)*
///   and_expr   := not_expr (AND not_expr)*
///   not_expr   := NOT not_expr | primary
///   primary    := '(' or_expr ')' | comparison
///   comparison := column cmp (column | number)
///              |  number cmp column
///              |  column BETWEEN number AND number
class Parser {
 public:
  Parser(std::vector<Token> tokens, const db::Table& table)
      : tokens_(std::move(tokens)), table_(table) {}

  Result<Query> Parse() {
    Query query;
    if (Peek().kind == TokenKind::kAnalyze) {
      // ANALYZE <table> : statement-initial ANALYZE is unambiguous (the
      // EXPLAIN ANALYZE prefix starts with EXPLAIN).
      Next();
      if (Peek().kind != TokenKind::kIdentifier) {
        return Error("expected table name after ANALYZE");
      }
      query.kind = Query::Kind::kAnalyzeTable;
      query.table_name = Next().text;
      if (Peek().kind == TokenKind::kSemicolon) Next();
      if (Peek().kind != TokenKind::kEnd) {
        return Error("unexpected trailing input");
      }
      return query;
    }
    if (Peek().kind == TokenKind::kExplain) {
      Next();
      if (Peek().kind == TokenKind::kProfile) {
        // EXPLAIN PROFILE: EXPLAIN ANALYZE plus the deep per-pass counter
        // table; every downstream dispatch keyed on explain_analyze works
        // unchanged.
        Next();
        query.explain_profile = true;
        query.explain_analyze = true;
      } else {
        GPUDB_RETURN_NOT_OK(Expect(TokenKind::kAnalyze));
        query.explain_analyze = true;
      }
    }
    GPUDB_RETURN_NOT_OK(Expect(TokenKind::kSelect));
    GPUDB_RETURN_NOT_OK(ParseSelectItem(&query));
    GPUDB_RETURN_NOT_OK(Expect(TokenKind::kFrom));
    if (Peek().kind != TokenKind::kIdentifier) {
      return Error("expected table name after FROM");
    }
    query.table_name = Next().text;
    if (Peek().kind == TokenKind::kWhere) {
      Next();
      GPUDB_ASSIGN_OR_RETURN(query.where, ParseOrExpr());
    }
    if (Peek().kind == TokenKind::kGroup) {
      Next();
      GPUDB_RETURN_NOT_OK(Expect(TokenKind::kBy));
      if (Peek().kind != TokenKind::kIdentifier) {
        return Error("expected column name after GROUP BY");
      }
      if (query.kind != Query::Kind::kAggregate) {
        return Error("GROUP BY requires an aggregate select item");
      }
      if (query.where != nullptr) {
        return Status::NotImplemented(
            "GROUP BY with a WHERE clause is not supported by the grouped "
            "execution path");
      }
      query.group_by_column = Next().text;
      query.kind = Query::Kind::kGroupBy;
    }
    if (Peek().kind == TokenKind::kOrder) {
      Next();
      GPUDB_RETURN_NOT_OK(Expect(TokenKind::kBy));
      if (query.kind != Query::Kind::kSelectRows) {
        return Error("ORDER BY is supported for SELECT * queries");
      }
      if (query.where != nullptr) {
        return Status::NotImplemented(
            "ORDER BY with a WHERE clause is not supported (the sort "
            "network runs over the full relation)");
      }
      if (Peek().kind != TokenKind::kIdentifier) {
        return Error("expected column name after ORDER BY");
      }
      query.order_by_column = Next().text;
      if (Peek().kind == TokenKind::kAsc) {
        Next();
      } else if (Peek().kind == TokenKind::kDesc) {
        Next();
        query.order_descending = true;
      }
    }
    if (Peek().kind == TokenKind::kLimit) {
      Next();
      if (query.kind != Query::Kind::kSelectRows) {
        return Error("LIMIT is supported for SELECT * queries");
      }
      if (Peek().kind != TokenKind::kNumber) {
        return Error("expected row count after LIMIT");
      }
      const double n = Next().number;
      if (n < 1 || n != std::floor(n)) {
        return Error("LIMIT must be a positive integer");
      }
      query.limit = static_cast<uint64_t>(n);
    }
    if (Peek().kind == TokenKind::kSemicolon) Next();
    if (Peek().kind != TokenKind::kEnd) {
      return Error("unexpected trailing input");
    }
    return query;
  }

 private:
  const Token& Peek(int ahead = 0) const {
    const size_t idx =
        std::min(pos_ + static_cast<size_t>(ahead), tokens_.size() - 1);
    return tokens_[idx];
  }
  const Token& Next() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }

  Status Error(const std::string& message) const {
    return Status::InvalidArgument(
        message + " at position " + std::to_string(Peek().position) +
        " (near '" + std::string(ToString(Peek().kind)) + "')");
  }

  Status Expect(TokenKind kind) {
    if (Peek().kind != kind) {
      return Error("expected '" + std::string(ToString(kind)) + "'");
    }
    Next();
    return Status::OK();
  }

  Result<size_t> ResolveColumn(const Token& token) {
    auto idx = table_.ColumnIndex(token.text);
    if (!idx.ok()) {
      return Status::InvalidArgument("unknown column '" + token.text +
                                     "' at position " +
                                     std::to_string(token.position));
    }
    return idx.ValueOrDie();
  }

  Status ParseSelectItem(Query* query) {
    switch (Peek().kind) {
      case TokenKind::kStar:
        Next();
        query->kind = Query::Kind::kSelectRows;
        return Status::OK();
      case TokenKind::kCount: {
        Next();
        GPUDB_RETURN_NOT_OK(Expect(TokenKind::kLParen));
        if (Peek().kind == TokenKind::kStar) {
          Next();
          GPUDB_RETURN_NOT_OK(Expect(TokenKind::kRParen));
          query->kind = Query::Kind::kCount;
          return Status::OK();
        }
        // COUNT(column) behaves as COUNT(*) here (no NULLs in this model).
        if (Peek().kind != TokenKind::kIdentifier) {
          return Error("expected '*' or column in COUNT()");
        }
        query->column = Next().text;
        GPUDB_RETURN_NOT_OK(Expect(TokenKind::kRParen));
        query->kind = Query::Kind::kAggregate;
        query->aggregate = core::AggregateKind::kCount;
        return Status::OK();
      }
      case TokenKind::kSum:
      case TokenKind::kAvg:
      case TokenKind::kMin:
      case TokenKind::kMax:
      case TokenKind::kMedian: {
        const TokenKind agg = Next().kind;
        GPUDB_RETURN_NOT_OK(Expect(TokenKind::kLParen));
        if (Peek().kind != TokenKind::kIdentifier) {
          return Error("expected column name in aggregate");
        }
        query->column = Next().text;
        GPUDB_RETURN_NOT_OK(Expect(TokenKind::kRParen));
        query->kind = Query::Kind::kAggregate;
        switch (agg) {
          case TokenKind::kSum:
            query->aggregate = core::AggregateKind::kSum;
            break;
          case TokenKind::kAvg:
            query->aggregate = core::AggregateKind::kAvg;
            break;
          case TokenKind::kMin:
            query->aggregate = core::AggregateKind::kMin;
            break;
          case TokenKind::kMax:
            query->aggregate = core::AggregateKind::kMax;
            break;
          default:
            query->aggregate = core::AggregateKind::kMedian;
            break;
        }
        return Status::OK();
      }
      case TokenKind::kKthLargest: {
        Next();
        GPUDB_RETURN_NOT_OK(Expect(TokenKind::kLParen));
        if (Peek().kind != TokenKind::kIdentifier) {
          return Error("expected column name in KTH_LARGEST");
        }
        query->column = Next().text;
        GPUDB_RETURN_NOT_OK(Expect(TokenKind::kComma));
        if (Peek().kind != TokenKind::kNumber) {
          return Error("expected k in KTH_LARGEST(column, k)");
        }
        const double k = Next().number;
        if (k < 1 || k != std::floor(k)) {
          return Error("k must be a positive integer");
        }
        query->k = static_cast<uint64_t>(k);
        GPUDB_RETURN_NOT_OK(Expect(TokenKind::kRParen));
        query->kind = Query::Kind::kKthLargest;
        return Status::OK();
      }
      default:
        return Error("expected '*', COUNT(*), an aggregate, or KTH_LARGEST");
    }
  }

  Result<ExprPtr> ParseOrExpr() {
    GPUDB_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAndExpr());
    while (Peek().kind == TokenKind::kOr) {
      Next();
      GPUDB_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAndExpr());
      lhs = Expr::Or(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAndExpr() {
    GPUDB_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNotExpr());
    while (Peek().kind == TokenKind::kAnd) {
      Next();
      GPUDB_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNotExpr());
      lhs = Expr::And(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseNotExpr() {
    if (Peek().kind == TokenKind::kNot) {
      Next();
      GPUDB_ASSIGN_OR_RETURN(ExprPtr child, ParseNotExpr());
      return Expr::Not(std::move(child));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    if (Peek().kind == TokenKind::kLParen) {
      Next();
      GPUDB_ASSIGN_OR_RETURN(ExprPtr inner, ParseOrExpr());
      GPUDB_RETURN_NOT_OK(Expect(TokenKind::kRParen));
      return inner;
    }
    return ParseComparison();
  }

  static Result<CompareOp> ToCompareOp(TokenKind kind) {
    switch (kind) {
      case TokenKind::kEq: return CompareOp::kEqual;
      case TokenKind::kNe: return CompareOp::kNotEqual;
      case TokenKind::kLt: return CompareOp::kLess;
      case TokenKind::kLe: return CompareOp::kLessEqual;
      case TokenKind::kGt: return CompareOp::kGreater;
      case TokenKind::kGe: return CompareOp::kGreaterEqual;
      default:
        return Status::InvalidArgument("not a comparison operator");
    }
  }

  Result<ExprPtr> ParseComparison() {
    if (Peek().kind == TokenKind::kNumber) {
      // number op column  ->  column Mirror(op) number
      const double value = Next().number;
      auto op = ToCompareOp(Peek().kind);
      if (!op.ok()) return Error("expected comparison operator");
      Next();
      if (Peek().kind != TokenKind::kIdentifier) {
        return Error("expected column after comparison operator");
      }
      GPUDB_ASSIGN_OR_RETURN(size_t col, ResolveColumn(Next()));
      return Expr::Pred(col, gpu::Mirror(op.ValueOrDie()),
                        static_cast<float>(value));
    }
    if (Peek().kind != TokenKind::kIdentifier) {
      return Error("expected column or number");
    }
    GPUDB_ASSIGN_OR_RETURN(size_t lhs, ResolveColumn(Next()));
    if (Peek().kind == TokenKind::kBetween) {
      Next();
      if (Peek().kind != TokenKind::kNumber) {
        return Error("expected lower bound after BETWEEN");
      }
      const double low = Next().number;
      GPUDB_RETURN_NOT_OK(Expect(TokenKind::kAnd));
      if (Peek().kind != TokenKind::kNumber) {
        return Error("expected upper bound in BETWEEN");
      }
      const double high = Next().number;
      return Expr::Between(lhs, static_cast<float>(low),
                           static_cast<float>(high));
    }
    auto op = ToCompareOp(Peek().kind);
    if (!op.ok()) return Error("expected comparison operator or BETWEEN");
    Next();
    if (Peek().kind == TokenKind::kNumber) {
      const double value = Next().number;
      return Expr::Pred(lhs, op.ValueOrDie(), static_cast<float>(value));
    }
    if (Peek().kind == TokenKind::kIdentifier) {
      GPUDB_ASSIGN_OR_RETURN(size_t rhs, ResolveColumn(Next()));
      return Expr::PredAttr(lhs, op.ValueOrDie(), rhs);
    }
    return Error("expected column or number on the right of comparison");
  }

  std::vector<Token> tokens_;
  const db::Table& table_;
  size_t pos_ = 0;
};

}  // namespace

std::string_view ToString(Query::Kind kind) {
  switch (kind) {
    case Query::Kind::kSelectRows:
      return "select";
    case Query::Kind::kCount:
      return "count";
    case Query::Kind::kAggregate:
      return "aggregate";
    case Query::Kind::kKthLargest:
      return "kth-largest";
    case Query::Kind::kGroupBy:
      return "group-by";
    case Query::Kind::kAnalyzeTable:
      return "analyze";
  }
  return "unknown";
}

Result<Query> ParseQuery(std::string_view input, const db::Table& table) {
  GPUDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(input));
  Parser parser(std::move(tokens), table);
  return parser.Parse();
}

Result<std::string> StatementTableName(std::string_view input) {
  GPUDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(input));
  if (tokens.size() >= 2 && tokens[0].kind == TokenKind::kAnalyze &&
      tokens[1].kind == TokenKind::kIdentifier) {
    return tokens[1].text;
  }
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].kind == TokenKind::kFrom &&
        tokens[i + 1].kind == TokenKind::kIdentifier) {
      return tokens[i + 1].text;
    }
  }
  return Status::InvalidArgument(
      "statement names no table (expected FROM <table> or ANALYZE <table>)");
}

std::string QueryResult::ToString() const {
  std::string value = "?";
  switch (kind) {
    case Query::Kind::kCount:
      value = "count = " + std::to_string(count);
      break;
    case Query::Kind::kAggregate:
    case Query::Kind::kKthLargest:
      value = "value = " + std::to_string(scalar);
      break;
    case Query::Kind::kSelectRows:
      value = std::to_string(row_ids.size()) + " row(s)";
      break;
    case Query::Kind::kGroupBy: {
      value = std::to_string(groups.size()) + " group(s):";
      for (const core::GroupByRow& g : groups) {
        value += " [" + std::to_string(g.key) + ": " +
                 std::to_string(g.aggregate) + "]";
      }
      break;
    }
    case Query::Kind::kAnalyzeTable:
      value = "analyzed " + std::to_string(count) + " column(s)";
      break;
  }
  if (analyzed) {
    value += "\n" + explain;
    if (profiled && !profile.empty()) {
      value += "\npass profile:\n" + profile;
    }
  }
  return value;
}

template <typename Exec>
Status ExecuteParsed(Exec* executor, const Query& query, QueryResult* result) {
  result->kind = query.kind;
  switch (query.kind) {
    case Query::Kind::kCount: {
      GPUDB_ASSIGN_OR_RETURN(result->count, executor->Count(query.where));
      return Status::OK();
    }
    case Query::Kind::kSelectRows: {
      if (!query.order_by_column.empty()) {
        GPUDB_ASSIGN_OR_RETURN(
            result->row_ids,
            executor->OrderByRowIds(query.order_by_column,
                                    !query.order_descending));
      } else {
        GPUDB_ASSIGN_OR_RETURN(result->row_ids,
                               executor->SelectRowIds(query.where));
      }
      if (query.limit > 0 && result->row_ids.size() > query.limit) {
        result->row_ids.resize(query.limit);
      }
      return Status::OK();
    }
    case Query::Kind::kAggregate: {
      GPUDB_ASSIGN_OR_RETURN(
          result->scalar,
          executor->Aggregate(query.aggregate, query.column, query.where));
      return Status::OK();
    }
    case Query::Kind::kKthLargest: {
      GPUDB_ASSIGN_OR_RETURN(
          uint32_t v,
          executor->KthLargest(query.column, query.k, query.where));
      result->scalar = static_cast<double>(v);
      return Status::OK();
    }
    case Query::Kind::kGroupBy: {
      GPUDB_ASSIGN_OR_RETURN(
          result->groups,
          executor->GroupBy(query.group_by_column, query.column,
                            query.aggregate));
      return Status::OK();
    }
    case Query::Kind::kAnalyzeTable: {
      // ANALYZE needs the catalog to store its statistics; the bare
      // executor path has nowhere to put them.
      return Status::InvalidArgument(
          "ANALYZE requires a sql::Session (statistics live in the catalog)");
    }
  }
  return Status::Internal("unhandled query kind");
}

template Status ExecuteParsed(core::Executor*, const Query&, QueryResult*);
template Status ExecuteParsed(core::PoolExecutor*, const Query&,
                              QueryResult*);

}  // namespace sql
}  // namespace gpudb
