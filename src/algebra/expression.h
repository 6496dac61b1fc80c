#ifndef DATACELL_ALGEBRA_EXPRESSION_H_
#define DATACELL_ALGEBRA_EXPRESSION_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/source_loc.h"
#include "storage/bat.h"
#include "storage/table.h"

namespace datacell {

/// Node kinds of the scalar expression tree. Expressions are evaluated in
/// bulk: one column (BAT) per sub-expression over the whole input table —
/// the column-store execution style the paper's argument rests on.
enum class ExprKind {
  kColumnRef,
  kLiteral,
  kBinary,
  kUnary,
  kFunction,
  kCase,
};

enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  /// SQL LIKE over strings: '%' matches any run, '_' one character.
  kLike,
};

enum class UnaryOp {
  kNot,
  kNeg,
  kIsNull,
  kIsNotNull,
};

/// Built-in scalar functions.
enum class ScalarFunc {
  kAbs,     // numeric -> same numeric family
  kFloor,   // numeric -> double
  kCeil,    // numeric -> double
  kRound,   // numeric -> double
  kSqrt,    // numeric -> double
  kLength,  // string -> int64
  kLower,   // string -> string
  kUpper,   // string -> string
  /// Truncating numeric -> int64 cast. Not reachable from SQL; the partition
  /// analyzer's synthesized merge plans use it to restore count()'s int64
  /// output type after re-aggregating count partials with sum().
  kToInt64,
};

const char* BinaryOpToString(BinaryOp op);
const char* UnaryOpToString(UnaryOp op);
const char* ScalarFuncToString(ScalarFunc f);

/// SQL LIKE pattern match ('%' = any run, '_' = one char). Exposed for the
/// per-row evaluator and tests.
bool LikeMatch(std::string_view value, std::string_view pattern);

/// Immutable, shareable scalar expression. Column references are positional:
/// the SQL binder resolves names to indices before execution.
class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

class Expr {
 public:
  /// Reference to input column `index`; `name` is kept for display only.
  /// Every factory takes an optional trailing source position (the SQL
  /// binder supplies it; C++-built expressions default to "unknown"), which
  /// the static analyzer threads into its diagnostics.
  static ExprPtr Column(size_t index, std::string name, DataType type,
                        SourceLoc loc = {});
  static ExprPtr Literal(Value v, SourceLoc loc = {});
  static ExprPtr Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs,
                        SourceLoc loc = {});
  static ExprPtr Unary(UnaryOp op, ExprPtr operand, SourceLoc loc = {});
  static ExprPtr Function(ScalarFunc func, ExprPtr arg, SourceLoc loc = {});
  /// Searched CASE: children alternate (condition, value) pairs followed by
  /// the mandatory else value. All value branches must share a type (int64
  /// promotes to double when mixed with double).
  static Result<ExprPtr> Case(std::vector<ExprPtr> when_then,
                              ExprPtr else_value, SourceLoc loc = {});

  // Convenience builders for the common cases in tests and workloads.
  static ExprPtr Int(int64_t v) { return Literal(Value::Int64(v)); }
  static ExprPtr Real(double v) { return Literal(Value::Double(v)); }
  static ExprPtr Str(std::string v) {
    return Literal(Value::String(std::move(v)));
  }
  static ExprPtr Eq(ExprPtr a, ExprPtr b) {
    return Binary(BinaryOp::kEq, std::move(a), std::move(b));
  }
  static ExprPtr And(ExprPtr a, ExprPtr b) {
    return Binary(BinaryOp::kAnd, std::move(a), std::move(b));
  }

  ExprKind kind() const { return kind_; }
  /// Result type; resolved at construction from operand types.
  DataType type() const { return type_; }
  /// SQL position this expression came from; invalid for C++-built trees.
  SourceLoc loc() const { return loc_; }

  // kColumnRef accessors.
  size_t column_index() const { return column_index_; }
  const std::string& column_name() const { return name_; }
  // kLiteral accessor.
  const Value& literal() const { return literal_; }
  // kBinary / kUnary accessors.
  BinaryOp binary_op() const { return bin_op_; }
  UnaryOp unary_op() const { return un_op_; }
  // kFunction accessor.
  ScalarFunc scalar_func() const { return func_; }
  // kCase accessors: children_ holds cond0,val0,cond1,val1,...,else.
  size_t num_when_branches() const { return (children_.size() - 1) / 2; }
  const ExprPtr& when_cond(size_t i) const { return children_[2 * i]; }
  const ExprPtr& when_value(size_t i) const { return children_[2 * i + 1]; }
  const ExprPtr& else_value() const { return children_.back(); }
  const ExprPtr& left() const { return children_[0]; }
  const ExprPtr& right() const { return children_[1]; }
  const ExprPtr& operand() const { return children_[0]; }

  /// SQL-ish rendering, e.g. "(a + 1) > 10".
  std::string ToString() const;

  /// True when the expression references no columns (constant under eval).
  bool IsConstant() const;

 private:
  Expr() = default;

  ExprKind kind_ = ExprKind::kLiteral;
  DataType type_ = DataType::kInt64;
  SourceLoc loc_;
  size_t column_index_ = 0;
  std::string name_;
  Value literal_;
  BinaryOp bin_op_ = BinaryOp::kAdd;
  UnaryOp un_op_ = UnaryOp::kNot;
  ScalarFunc func_ = ScalarFunc::kAbs;
  std::vector<ExprPtr> children_;
};

/// Evaluates `expr` over every row of `input`, producing a BAT of
/// `input.num_rows()` values. Arithmetic over a null yields null; comparisons
/// and logical ops treat null as false (simplified 3VL, documented in
/// DESIGN.md). Division by zero yields null.
Result<BatPtr> EvaluateExpr(const Expr& expr, const Table& input);

/// Evaluates a boolean-typed `expr` and returns the positions of rows where
/// it is true — the candidate-list form MonetDB's select primitive returns.
Result<std::vector<size_t>> EvaluatePredicate(const Expr& expr,
                                              const Table& input);

/// Folds a constant boolean predicate (no column references) to its truth
/// value under predicate semantics — a null result counts as false, exactly
/// as EvaluatePredicate would treat it per row. Returns nullopt when the
/// expression references columns, is not boolean, or fails to evaluate.
/// Used by the static analyzer's constant-predicate warning (P023).
std::optional<bool> TryFoldConstantPredicate(const Expr& expr);

}  // namespace datacell

#endif  // DATACELL_ALGEBRA_EXPRESSION_H_
