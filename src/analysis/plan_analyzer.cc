#include "analysis/plan_analyzer.h"

namespace datacell {
namespace analysis {

namespace {

bool IsArithmetic(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod:
      return true;
    default:
      return false;
  }
}

bool IsLogical(BinaryOp op) {
  return op == BinaryOp::kAnd || op == BinaryOp::kOr;
}

/// Storage-class compatibility: values of these types flow through the same
/// BAT accessors at fire time, so mixing them cannot crash the evaluator.
bool SameStorageClass(DataType a, DataType b) {
  if (a == b) return true;
  return IsNumeric(a) && IsNumeric(b);
}

std::string TypeName(DataType t) { return DataTypeToString(t); }

}  // namespace

std::optional<DataType> CheckExpr(const Expr& expr, const Schema& input,
                                  const std::string& where,
                                  AnalysisReport* report) {
  switch (expr.kind()) {
    case ExprKind::kColumnRef: {
      if (expr.column_index() >= input.num_fields()) {
        report->Add(DiagCode::kColumnOutOfRange, Severity::kError,
                    "column reference '" + expr.column_name() + "' (#" +
                        std::to_string(expr.column_index()) +
                        ") exceeds input arity " +
                        std::to_string(input.num_fields()),
                    expr.loc(), where);
        return std::nullopt;
      }
      DataType actual = input.field(expr.column_index()).type;
      if (actual != expr.type()) {
        // Numeric-family drift is harmless at fire time (shared accessors);
        // a string/bool class mismatch would hit the wrong BAT accessor.
        Severity sev = SameStorageClass(actual, expr.type())
                           ? Severity::kWarning
                           : Severity::kError;
        report->Add(DiagCode::kDeclaredTypeMismatch, sev,
                    "column '" + expr.column_name() + "' is declared " +
                        TypeName(expr.type()) + " but input column #" +
                        std::to_string(expr.column_index()) + " is " +
                        TypeName(actual),
                    expr.loc(), where);
        if (sev == Severity::kError) return std::nullopt;
      }
      return actual;
    }
    case ExprKind::kLiteral:
      return expr.type();
    case ExprKind::kBinary: {
      auto lt = CheckExpr(*expr.left(), input, where, report);
      auto rt = CheckExpr(*expr.right(), input, where, report);
      if (!lt.has_value() || !rt.has_value()) return std::nullopt;
      BinaryOp op = expr.binary_op();
      if (IsArithmetic(op)) {
        if (!IsNumeric(*lt) || !IsNumeric(*rt)) {
          report->Add(DiagCode::kArithmeticType, Severity::kError,
                      "arithmetic '" + std::string(BinaryOpToString(op)) +
                          "' requires numeric operands, got " + TypeName(*lt) +
                          " and " + TypeName(*rt) + " in " + expr.ToString(),
                      expr.loc(), where);
          return std::nullopt;
        }
        return (*lt == DataType::kDouble || *rt == DataType::kDouble)
                   ? DataType::kDouble
                   : DataType::kInt64;
      }
      if (IsLogical(op)) {
        if (*lt != DataType::kBool || *rt != DataType::kBool) {
          report->Add(DiagCode::kLogicalType, Severity::kError,
                      "AND/OR require boolean operands, got " + TypeName(*lt) +
                          " and " + TypeName(*rt) + " in " + expr.ToString(),
                      expr.loc(), where);
          return std::nullopt;
        }
        return DataType::kBool;
      }
      if (op == BinaryOp::kLike) {
        if (*lt != DataType::kString || *rt != DataType::kString) {
          report->Add(DiagCode::kLikeType, Severity::kError,
                      "LIKE requires string operands, got " + TypeName(*lt) +
                          " and " + TypeName(*rt) + " in " + expr.ToString(),
                      expr.loc(), where);
          return std::nullopt;
        }
        return DataType::kBool;
      }
      // Comparison: strings with strings, bools with bools, numerics mix.
      bool ok = (*lt == DataType::kString) == (*rt == DataType::kString) &&
                (*lt == DataType::kBool) == (*rt == DataType::kBool);
      if (!ok) {
        report->Add(DiagCode::kComparisonType, Severity::kError,
                    "cannot compare " + TypeName(*lt) + " with " +
                        TypeName(*rt) + " in " + expr.ToString(),
                    expr.loc(), where);
        return std::nullopt;
      }
      return DataType::kBool;
    }
    case ExprKind::kUnary: {
      auto t = CheckExpr(*expr.operand(), input, where, report);
      if (!t.has_value()) return std::nullopt;
      switch (expr.unary_op()) {
        case UnaryOp::kNot:
          if (*t != DataType::kBool) {
            report->Add(DiagCode::kNotType, Severity::kError,
                        "NOT requires a boolean operand, got " + TypeName(*t) +
                            " in " + expr.ToString(),
                        expr.loc(), where);
            return std::nullopt;
          }
          return DataType::kBool;
        case UnaryOp::kNeg:
          if (!IsNumeric(*t)) {
            report->Add(DiagCode::kNegType, Severity::kError,
                        "unary minus requires a numeric operand, got " +
                            TypeName(*t) + " in " + expr.ToString(),
                        expr.loc(), where);
            return std::nullopt;
          }
          return *t;
        case UnaryOp::kIsNull:
        case UnaryOp::kIsNotNull:
          return DataType::kBool;
      }
      return std::nullopt;
    }
    case ExprKind::kFunction: {
      auto t = CheckExpr(*expr.operand(), input, where, report);
      if (!t.has_value()) return std::nullopt;
      ScalarFunc f = expr.scalar_func();
      bool needs_string = f == ScalarFunc::kLength ||
                          f == ScalarFunc::kLower || f == ScalarFunc::kUpper;
      if (needs_string && *t != DataType::kString) {
        report->Add(DiagCode::kFunctionArgType, Severity::kError,
                    "function '" + std::string(ScalarFuncToString(f)) +
                        "' requires a string argument, got " + TypeName(*t),
                    expr.loc(), where);
        return std::nullopt;
      }
      if (!needs_string && !IsNumeric(*t)) {
        report->Add(DiagCode::kFunctionArgType, Severity::kError,
                    "function '" + std::string(ScalarFuncToString(f)) +
                        "' requires a numeric argument, got " + TypeName(*t),
                    expr.loc(), where);
        return std::nullopt;
      }
      switch (f) {
        case ScalarFunc::kAbs:
          return *t == DataType::kDouble ? DataType::kDouble
                                         : DataType::kInt64;
        case ScalarFunc::kFloor:
        case ScalarFunc::kCeil:
        case ScalarFunc::kRound:
        case ScalarFunc::kSqrt:
          return DataType::kDouble;
        case ScalarFunc::kLength:
        case ScalarFunc::kToInt64:
          return DataType::kInt64;
        case ScalarFunc::kLower:
        case ScalarFunc::kUpper:
          return DataType::kString;
      }
      return std::nullopt;
    }
    case ExprKind::kCase: {
      std::optional<DataType> out;
      bool broken = false;
      for (size_t i = 0; i < expr.num_when_branches(); ++i) {
        auto ct = CheckExpr(*expr.when_cond(i), input, where, report);
        if (ct.has_value() && *ct != DataType::kBool) {
          report->Add(DiagCode::kCaseConditionType, Severity::kError,
                      "CASE WHEN condition must be boolean, got " +
                          TypeName(*ct) + " in " + expr.when_cond(i)->ToString(),
                      expr.loc(), where);
          broken = true;
        }
        auto vt = CheckExpr(*expr.when_value(i), input, where, report);
        if (!vt.has_value()) {
          broken = true;
        } else if (!out.has_value()) {
          out = *vt;
        } else if (*vt != *out) {
          if (IsNumeric(*vt) && IsNumeric(*out)) {
            out = DataType::kDouble;  // mixed numeric branches widen
          } else {
            report->Add(DiagCode::kCaseBranchType, Severity::kError,
                        "CASE branches must share a type: " + TypeName(*out) +
                            " vs " + TypeName(*vt),
                        expr.loc(), where);
            broken = true;
          }
        }
      }
      auto et = CheckExpr(*expr.else_value(), input, where, report);
      if (!et.has_value()) {
        broken = true;
      } else if (out.has_value() && *et != *out) {
        if (IsNumeric(*et) && IsNumeric(*out)) {
          out = DataType::kDouble;
        } else {
          report->Add(DiagCode::kCaseBranchType, Severity::kError,
                      "CASE ELSE branch type " + TypeName(*et) +
                          " does not match " + TypeName(*out),
                      expr.loc(), where);
          broken = true;
        }
      } else if (!out.has_value()) {
        out = et;
      }
      if (broken) return std::nullopt;
      return out;
    }
  }
  return std::nullopt;
}

void CheckPredicate(const Expr& pred, const Schema& input,
                    const std::string& where, AnalysisReport* report) {
  auto t = CheckExpr(pred, input, where, report);
  if (t.has_value() && *t != DataType::kBool) {
    report->Add(DiagCode::kNonBooleanPredicate, Severity::kError,
                "predicate must be boolean, got " + TypeName(*t) + " in " +
                    pred.ToString(),
                pred.loc(), where);
    return;
  }
  // A predicate that folds to a constant is almost always a mistake: an
  // always-false one silently selects (or consumes) nothing, an always-true
  // one is dead weight. The engine runs it like any other predicate, so
  // warn here rather than letting the query quietly do nothing.
  if (auto folded = TryFoldConstantPredicate(pred)) {
    report->Add(DiagCode::kConstantPredicate, Severity::kWarning,
                std::string("predicate is constant ") +
                    (*folded ? "true (never filters anything)"
                             : "false (selects nothing)") +
                    ": " + pred.ToString(),
                pred.loc(), where);
  }
}

void AnalyzePlanNode(const PlanNode& plan, AnalysisReport* report) {
  for (const PlanPtr& c : plan.children()) AnalyzePlanNode(*c, report);
  switch (plan.kind()) {
    case PlanKind::kScan:
      break;  // relation existence is an engine-level (catalog) concern
    case PlanKind::kFilter:
      CheckPredicate(*plan.predicate(), plan.child()->output_schema(),
                     "Filter", report);
      break;
    case PlanKind::kProject: {
      const Schema& in = plan.child()->output_schema();
      for (const ExprPtr& e : plan.projections()) {
        CheckExpr(*e, in, "Project", report);
      }
      break;
    }
    case PlanKind::kHashJoin: {
      const Schema& ls = plan.child(0)->output_schema();
      const Schema& rs = plan.child(1)->output_schema();
      bool in_range = true;
      if (plan.left_key() >= ls.num_fields()) {
        report->Add(DiagCode::kJoinKeyOutOfRange, Severity::kError,
                    "left join key #" + std::to_string(plan.left_key()) +
                        " exceeds arity " + std::to_string(ls.num_fields()),
                    {}, "HashJoin");
        in_range = false;
      }
      if (plan.right_key() >= rs.num_fields()) {
        report->Add(DiagCode::kJoinKeyOutOfRange, Severity::kError,
                    "right join key #" + std::to_string(plan.right_key()) +
                        " exceeds arity " + std::to_string(rs.num_fields()),
                    {}, "HashJoin");
        in_range = false;
      }
      if (in_range) {
        DataType lt = ls.field(plan.left_key()).type;
        DataType rt = rs.field(plan.right_key()).type;
        if (lt != rt && !(IsIntegerBacked(lt) && IsIntegerBacked(rt))) {
          report->Add(DiagCode::kJoinKeyType, Severity::kError,
                      "join key type mismatch: " + TypeName(lt) + " vs " +
                          TypeName(rt),
                      {}, "HashJoin");
        }
      }
      break;
    }
    case PlanKind::kAggregate: {
      const Schema& in = plan.child()->output_schema();
      for (size_t g : plan.group_columns()) {
        if (g >= in.num_fields()) {
          report->Add(DiagCode::kAggregateColumnOutOfRange, Severity::kError,
                      "group column #" + std::to_string(g) +
                          " exceeds input arity " +
                          std::to_string(in.num_fields()),
                      {}, "Aggregate");
        }
      }
      for (const AggSpec& a : plan.aggregates()) {
        if (a.count_star) continue;
        if (a.input_column >= in.num_fields()) {
          report->Add(DiagCode::kAggregateColumnOutOfRange, Severity::kError,
                      "aggregate input column #" +
                          std::to_string(a.input_column) +
                          " exceeds input arity " +
                          std::to_string(in.num_fields()),
                      {}, "Aggregate");
          continue;
        }
        DataType t = in.field(a.input_column).type;
        // Mirrors the runtime CheckAggregatable: every aggregate — count
        // over an explicit column included — folds values through the
        // numeric accumulator.
        if (!IsNumeric(t) && t != DataType::kBool) {
          report->Add(DiagCode::kAggregateInputType, Severity::kError,
                      std::string(AggFuncToString(a.func)) + "('" +
                          in.field(a.input_column).name +
                          "') cannot aggregate values of type " + TypeName(t),
                      {}, "Aggregate");
        }
      }
      break;
    }
    case PlanKind::kSort: {
      const Schema& in = plan.child()->output_schema();
      for (const SortKey& k : plan.sort_keys()) {
        if (k.column >= in.num_fields()) {
          report->Add(DiagCode::kSortKeyOutOfRange, Severity::kError,
                      "sort key #" + std::to_string(k.column) +
                          " exceeds input arity " +
                          std::to_string(in.num_fields()),
                      {}, "Sort");
        }
      }
      break;
    }
    case PlanKind::kUnion: {
      const Schema& ls = plan.child(0)->output_schema();
      const Schema& rs = plan.child(1)->output_schema();
      if (ls.num_fields() != rs.num_fields()) {
        report->Add(DiagCode::kUnionArity, Severity::kError,
                    "union children have arity " +
                        std::to_string(ls.num_fields()) + " vs " +
                        std::to_string(rs.num_fields()),
                    {}, "Union");
        break;
      }
      for (size_t i = 0; i < ls.num_fields(); ++i) {
        if (ls.field(i).type != rs.field(i).type) {
          report->Add(DiagCode::kUnionColumnType, Severity::kError,
                      "union column #" + std::to_string(i) +
                          " type mismatch: " + TypeName(ls.field(i).type) +
                          " vs " + TypeName(rs.field(i).type),
                      {}, "Union");
        }
      }
      break;
    }
    case PlanKind::kDistinct:
    case PlanKind::kLimit:
      break;  // row-shape preserving, no typed state of their own
  }
}

AnalysisReport AnalyzePlan(const PlanNode& plan) {
  AnalysisReport report;
  AnalyzePlanNode(plan, &report);
  return report;
}

}  // namespace analysis
}  // namespace datacell
