#include "sql/binder.h"

#include "common/string_util.h"
#include "storage/column_batch.h"

namespace datacell {
namespace sql {

void Scope::AddSource(std::string qualifier, const Schema& schema) {
  size_t offset = num_columns();
  sources_.push_back(Source{std::move(qualifier), schema, offset});
}

size_t Scope::num_columns() const {
  if (sources_.empty()) return 0;
  const Source& last = sources_.back();
  return last.offset + last.schema.num_fields();
}

namespace {

/// " at line:col" suffix for binder diagnostics; empty when unknown.
std::string AtLoc(SourceLoc loc) {
  return loc.valid() ? " at " + loc.ToString() : std::string();
}

/// Evaluates a constant INSERT expression (literals, optionally negated).
Result<Value> EvalInsertLiteral(const AstExpr& e) {
  if (e.kind == AstExprKind::kLiteral) return e.literal;
  if (e.kind == AstExprKind::kUnary && e.unary_op == AstUnaryOp::kNeg) {
    DC_ASSIGN_OR_RETURN(Value v, EvalInsertLiteral(*e.children[0]));
    if (v.is_int64()) return Value::Int64(-v.int64_value());
    if (v.is_double()) return Value::Double(-v.double_value());
    return Status::TypeError("cannot negate non-numeric literal");
  }
  return Status::InvalidArgument("INSERT values must be literals: " +
                                 e.ToString());
}

}  // namespace

Result<ExprPtr> Scope::ResolveColumn(const std::string& qualifier,
                                     const std::string& column,
                                     SourceLoc loc) const {
  const Source* found_source = nullptr;
  size_t found_index = 0;
  for (const Source& src : sources_) {
    if (!qualifier.empty() && !EqualsIgnoreCase(src.qualifier, qualifier)) {
      continue;
    }
    auto idx = src.schema.IndexOf(column);
    if (!idx.has_value()) continue;
    if (found_source != nullptr) {
      return Status::InvalidArgument("ambiguous column reference '" + column +
                                     "'" + AtLoc(loc));
    }
    found_source = &src;
    found_index = src.offset + *idx;
  }
  if (found_source == nullptr) {
    std::string full = qualifier.empty() ? column : qualifier + "." + column;
    return Status::NotFound("unknown column '" + full + "'" + AtLoc(loc));
  }
  const Field& f =
      found_source->schema.field(found_index - found_source->offset);
  return Expr::Column(found_index, f.name, f.type, loc);
}

std::vector<ExprPtr> Scope::AllColumns() const {
  std::vector<ExprPtr> out;
  for (const Source& src : sources_) {
    for (size_t i = 0; i < src.schema.num_fields(); ++i) {
      const Field& f = src.schema.field(i);
      out.push_back(Expr::Column(src.offset + i, f.name, f.type));
    }
  }
  return out;
}

std::vector<std::string> Scope::AllColumnNames() const {
  std::vector<std::string> out;
  for (const Source& src : sources_) {
    for (const Field& f : src.schema.fields()) out.push_back(f.name);
  }
  return out;
}

Schema Scope::CombinedSchema() const {
  Schema s;
  for (const Source& src : sources_) {
    for (const Field& f : src.schema.fields()) s.AddField(f);
  }
  return s;
}

bool ContainsAggregate(const AstExpr& ast) {
  if (ast.kind == AstExprKind::kFuncCall && IsAggregateFuncName(ast.func_name)) {
    return true;
  }
  for (const AstExprPtr& c : ast.children) {
    if (c != nullptr && ContainsAggregate(*c)) return true;
  }
  return false;
}

Result<ScalarFunc> ScalarFuncFromName(const std::string& lower_name) {
  if (lower_name == "abs") return ScalarFunc::kAbs;
  if (lower_name == "floor") return ScalarFunc::kFloor;
  if (lower_name == "ceil") return ScalarFunc::kCeil;
  if (lower_name == "round") return ScalarFunc::kRound;
  if (lower_name == "sqrt") return ScalarFunc::kSqrt;
  if (lower_name == "length") return ScalarFunc::kLength;
  if (lower_name == "lower") return ScalarFunc::kLower;
  if (lower_name == "upper") return ScalarFunc::kUpper;
  return Status::InvalidArgument("unknown function '" + lower_name + "'");
}

namespace {

BinaryOp ToAlgebraOp(AstBinaryOp op) {
  switch (op) {
    case AstBinaryOp::kAdd:
      return BinaryOp::kAdd;
    case AstBinaryOp::kSub:
      return BinaryOp::kSub;
    case AstBinaryOp::kMul:
      return BinaryOp::kMul;
    case AstBinaryOp::kDiv:
      return BinaryOp::kDiv;
    case AstBinaryOp::kMod:
      return BinaryOp::kMod;
    case AstBinaryOp::kEq:
      return BinaryOp::kEq;
    case AstBinaryOp::kNe:
      return BinaryOp::kNe;
    case AstBinaryOp::kLt:
      return BinaryOp::kLt;
    case AstBinaryOp::kLe:
      return BinaryOp::kLe;
    case AstBinaryOp::kGt:
      return BinaryOp::kGt;
    case AstBinaryOp::kGe:
      return BinaryOp::kGe;
    case AstBinaryOp::kAnd:
      return BinaryOp::kAnd;
    case AstBinaryOp::kOr:
      return BinaryOp::kOr;
    case AstBinaryOp::kLike:
      return BinaryOp::kLike;
  }
  return BinaryOp::kAdd;
}

bool IsArithmetic(AstBinaryOp op) {
  switch (op) {
    case AstBinaryOp::kAdd:
    case AstBinaryOp::kSub:
    case AstBinaryOp::kMul:
    case AstBinaryOp::kDiv:
    case AstBinaryOp::kMod:
      return true;
    default:
      return false;
  }
}

bool IsLogicalOp(AstBinaryOp op) {
  return op == AstBinaryOp::kAnd || op == AstBinaryOp::kOr;
}

}  // namespace

Status CheckBinaryOperandTypes(AstBinaryOp op, const ExprPtr& l,
                               const ExprPtr& r) {
  DataType lt = l->type();
  DataType rt = r->type();
  SourceLoc loc = l->loc().valid() ? l->loc() : r->loc();
  if (IsArithmetic(op)) {
    if (!IsNumeric(lt) || !IsNumeric(rt)) {
      return Status::TypeError("arithmetic requires numeric operands: " +
                               l->ToString() + " vs " + r->ToString() +
                               AtLoc(loc));
    }
    return Status::OK();
  }
  if (IsLogicalOp(op)) {
    if (lt != DataType::kBool || rt != DataType::kBool) {
      return Status::TypeError("AND/OR require boolean operands" + AtLoc(loc));
    }
    return Status::OK();
  }
  if (op == AstBinaryOp::kLike) {
    if (lt != DataType::kString || rt != DataType::kString) {
      return Status::TypeError("LIKE requires string operands" + AtLoc(loc));
    }
    return Status::OK();
  }
  // Comparison: strings with strings, bools with bools, numerics together.
  bool ok = (lt == DataType::kString) == (rt == DataType::kString) &&
            (lt == DataType::kBool) == (rt == DataType::kBool);
  if (!ok) {
    return Status::TypeError("cannot compare " +
                             std::string(DataTypeToString(lt)) + " with " +
                             DataTypeToString(rt) + AtLoc(loc));
  }
  return Status::OK();
}

Status CheckScalarFuncArg(ScalarFunc func, const std::string& name,
                          const ExprPtr& arg) {
  bool needs_string = func == ScalarFunc::kLength ||
                      func == ScalarFunc::kLower || func == ScalarFunc::kUpper;
  if (needs_string && arg->type() != DataType::kString) {
    return Status::TypeError("function '" + name +
                             "' requires a string argument" +
                             AtLoc(arg->loc()));
  }
  if (!needs_string && !IsNumeric(arg->type())) {
    return Status::TypeError("function '" + name +
                             "' requires a numeric argument" +
                             AtLoc(arg->loc()));
  }
  return Status::OK();
}

Result<ExprPtr> BindScalarExpr(const AstExpr& ast, const Scope& scope) {
  const SourceLoc loc{ast.line, ast.col};
  switch (ast.kind) {
    case AstExprKind::kColumnRef:
      return scope.ResolveColumn(ast.qualifier, ast.column, loc);
    case AstExprKind::kLiteral:
      return Expr::Literal(ast.literal, loc);
    case AstExprKind::kBinary: {
      DC_ASSIGN_OR_RETURN(ExprPtr l, BindScalarExpr(*ast.children[0], scope));
      DC_ASSIGN_OR_RETURN(ExprPtr r, BindScalarExpr(*ast.children[1], scope));
      DC_RETURN_NOT_OK(CheckBinaryOperandTypes(ast.binary_op, l, r));
      return Expr::Binary(ToAlgebraOp(ast.binary_op), std::move(l),
                          std::move(r), loc);
    }
    case AstExprKind::kUnary: {
      DC_ASSIGN_OR_RETURN(ExprPtr c, BindScalarExpr(*ast.children[0], scope));
      switch (ast.unary_op) {
        case AstUnaryOp::kNot:
          if (c->type() != DataType::kBool) {
            return Status::TypeError("NOT requires a boolean operand" +
                                     AtLoc(loc.valid() ? loc : c->loc()));
          }
          return Expr::Unary(UnaryOp::kNot, std::move(c), loc);
        case AstUnaryOp::kNeg:
          if (!IsNumeric(c->type())) {
            return Status::TypeError("unary minus requires a numeric operand" +
                                     AtLoc(loc.valid() ? loc : c->loc()));
          }
          return Expr::Unary(UnaryOp::kNeg, std::move(c), loc);
        case AstUnaryOp::kIsNull:
          return Expr::Unary(UnaryOp::kIsNull, std::move(c), loc);
        case AstUnaryOp::kIsNotNull:
          return Expr::Unary(UnaryOp::kIsNotNull, std::move(c), loc);
      }
      return Status::Internal("bad unary op");
    }
    case AstExprKind::kCase: {
      std::vector<ExprPtr> when_then;
      size_t branches = (ast.children.size() - 1) / 2;
      for (size_t i = 0; i < branches; ++i) {
        DC_ASSIGN_OR_RETURN(ExprPtr cond,
                            BindScalarExpr(*ast.children[2 * i], scope));
        DC_ASSIGN_OR_RETURN(ExprPtr val,
                            BindScalarExpr(*ast.children[2 * i + 1], scope));
        when_then.push_back(std::move(cond));
        when_then.push_back(std::move(val));
      }
      DC_ASSIGN_OR_RETURN(ExprPtr other,
                          BindScalarExpr(*ast.children.back(), scope));
      auto made = Expr::Case(std::move(when_then), std::move(other), loc);
      if (!made.ok() && loc.valid()) {
        return Status::TypeError(made.status().message() + AtLoc(loc));
      }
      return made;
    }
    case AstExprKind::kFuncCall: {
      if (IsAggregateFuncName(ast.func_name)) {
        return Status::InvalidArgument(
            "aggregate function '" + ast.func_name +
            "' is not allowed in this context (WHERE/ON/scalar expression)" +
            AtLoc(loc));
      }
      if (ast.star || ast.children.size() != 1) {
        return Status::InvalidArgument("function '" + ast.func_name +
                                       "' takes exactly one argument" +
                                       AtLoc(loc));
      }
      DC_ASSIGN_OR_RETURN(ScalarFunc func, ScalarFuncFromName(ast.func_name));
      DC_ASSIGN_OR_RETURN(ExprPtr arg, BindScalarExpr(*ast.children[0], scope));
      DC_RETURN_NOT_OK(CheckScalarFuncArg(func, ast.func_name, arg));
      return Expr::Function(func, std::move(arg), loc);
    }
  }
  return Status::Internal("bad expression kind");
}

Result<std::vector<Row>> BindInsertRows(const InsertStmt& stmt,
                                        const Schema& schema) {
  // The schema position each value of a row lands in.
  std::vector<size_t> positions;
  for (const std::string& col : stmt.columns) {
    auto idx = schema.IndexOf(col);
    if (!idx.has_value()) {
      return Status::NotFound("unknown column '" + col + "' in INSERT");
    }
    positions.push_back(*idx);
  }
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < schema.num_fields(); ++i) positions.push_back(i);
  }
  std::vector<Row> rows;
  rows.reserve(stmt.rows.size());
  for (const auto& ast_row : stmt.rows) {
    if (ast_row.size() != positions.size()) {
      return Status::InvalidArgument("INSERT row arity mismatch");
    }
    Row row(schema.num_fields(), Value::Null());
    for (size_t i = 0; i < ast_row.size(); ++i) {
      // Integer literals bound to double columns widen on append.
      DC_ASSIGN_OR_RETURN(row[positions[i]], EvalInsertLiteral(*ast_row[i]));
    }
    rows.push_back(std::move(row));
  }
  DC_RETURN_NOT_OK(ColumnBatch::CheckRows(schema, rows));
  return rows;
}

}  // namespace sql
}  // namespace datacell
