#include "algebra/lowering.h"

#include <cmath>
#include <limits>

namespace datacell {

bool MatchLiteral(const Expr& e, Value* out) {
  if (e.kind() == ExprKind::kLiteral) {
    *out = e.literal();
    return true;
  }
  if (e.kind() == ExprKind::kUnary && e.unary_op() == UnaryOp::kNeg &&
      e.operand()->kind() == ExprKind::kLiteral) {
    const Value& v = e.operand()->literal();
    if (v.is_int64()) {
      *out = Value::Int64(-v.int64_value());
      return true;
    }
    if (v.is_double()) {
      *out = Value::Double(-v.double_value());
      return true;
    }
  }
  return false;
}

namespace {

/// Extracts (column, cmp-op, numeric-or-string literal) from `e`, accepting
/// the literal on either side (the op is mirrored so the column reads as the
/// left operand). Returns false when the shape does not match.
bool MatchComparison(const Expr& e, const Schema& input, size_t* column,
                     BinaryOp* op, Value* literal) {
  if (e.kind() != ExprKind::kBinary) return false;
  BinaryOp bop = e.binary_op();
  if (bop != BinaryOp::kEq && bop != BinaryOp::kLt && bop != BinaryOp::kLe &&
      bop != BinaryOp::kGt && bop != BinaryOp::kGe) {
    return false;
  }
  const Expr* col = nullptr;
  Value lit;
  if (e.left()->kind() == ExprKind::kColumnRef &&
      MatchLiteral(*e.right(), &lit)) {
    col = e.left().get();
  } else if (e.right()->kind() == ExprKind::kColumnRef &&
             MatchLiteral(*e.left(), &lit)) {
    col = e.right().get();
    // Mirror the comparison so the column is always on the left.
    switch (bop) {
      case BinaryOp::kLt: bop = BinaryOp::kGt; break;
      case BinaryOp::kLe: bop = BinaryOp::kGe; break;
      case BinaryOp::kGt: bop = BinaryOp::kLt; break;
      case BinaryOp::kGe: bop = BinaryOp::kLe; break;
      default: break;
    }
  } else {
    return false;
  }
  if (lit.is_null()) return false;
  if (col->column_index() >= input.num_fields()) return false;
  *column = col->column_index();
  *op = bop;
  *literal = std::move(lit);
  return true;
}

/// Lowers one comparison into range bounds on `out`. Returns false when the
/// column/literal type combination is not kernel-representable (double
/// literal against an int column, a 64-bit int literal that does not
/// round-trip through double against a double column, NaN, string ops other
/// than equality).
bool LowerComparison(const Schema& input, size_t column, BinaryOp op,
                     const Value& literal, LoweredSelect* out) {
  DataType col_type = input.field(column).type;
  out->column = column;
  out->type = col_type;
  if (col_type == DataType::kString) {
    if (op != BinaryOp::kEq || !literal.is_string()) return false;
    out->is_string = true;
    out->str_value = literal.string_value();
    return true;
  }
  if (IsIntegerBacked(col_type)) {
    // int vs double literal: generic path (timestamps are int64-backed).
    if (!literal.is_int64() && !literal.is_timestamp()) return false;
    int64_t v = literal.int64_value();
    switch (op) {
      case BinaryOp::kEq: out->ilo = out->ihi = v; break;
      case BinaryOp::kLe: out->ihi = v; break;
      case BinaryOp::kGe: out->ilo = v; break;
      case BinaryOp::kLt:
        if (v == std::numeric_limits<int64_t>::min()) out->empty = true;
        else out->ihi = v - 1;
        break;
      case BinaryOp::kGt:
        if (v == std::numeric_limits<int64_t>::max()) out->empty = true;
        else out->ilo = v + 1;
        break;
      default: return false;
    }
    return true;
  }
  if (col_type == DataType::kDouble) {
    double v;
    if (literal.is_double()) {
      v = literal.double_value();
    } else if (literal.is_int64()) {
      v = static_cast<double>(literal.int64_value());
      // A 64-bit int that doesn't round-trip through double would silently
      // shift the bound; leave those to the generic evaluator.
      if (static_cast<int64_t>(v) != literal.int64_value()) return false;
    } else {
      return false;
    }
    if (std::isnan(v)) return false;
    switch (op) {
      case BinaryOp::kEq: out->dlo = out->dhi = v; break;
      case BinaryOp::kLe: out->dhi = v; break;
      case BinaryOp::kGe: out->dlo = v; break;
      case BinaryOp::kLt:
        // The kernel bound is inclusive; the next representable double down
        // expresses the strict inequality exactly.
        out->dhi = std::nextafter(v, -std::numeric_limits<double>::infinity());
        break;
      case BinaryOp::kGt:
        out->dlo = std::nextafter(v, std::numeric_limits<double>::infinity());
        break;
      default: return false;
    }
    return true;
  }
  return false;
}

/// Conjunction of two lowered ranges on the same column.
void IntersectBounds(LoweredSelect* into, const LoweredSelect& other) {
  into->empty = into->empty || other.empty;
  if (other.ilo && (!into->ilo || *other.ilo > *into->ilo)) into->ilo = other.ilo;
  if (other.ihi && (!into->ihi || *other.ihi < *into->ihi)) into->ihi = other.ihi;
  if (other.dlo && (!into->dlo || *other.dlo > *into->dlo)) into->dlo = other.dlo;
  if (other.dhi && (!into->dhi || *other.dhi < *into->dhi)) into->dhi = other.dhi;
}

}  // namespace

std::optional<LoweredSelect> TryLowerSelect(const Expr& e,
                                            const Schema& input) {
  size_t column;
  BinaryOp op;
  Value literal;
  if (MatchComparison(e, input, &column, &op, &literal)) {
    LoweredSelect out;
    if (!LowerComparison(input, column, op, literal, &out)) return std::nullopt;
    return out;
  }
  if (e.kind() == ExprKind::kBinary && e.binary_op() == BinaryOp::kAnd) {
    auto lhs = TryLowerSelect(*e.left(), input);
    if (!lhs || lhs->is_string) return std::nullopt;
    auto rhs = TryLowerSelect(*e.right(), input);
    if (!rhs || rhs->is_string) return std::nullopt;
    if (lhs->column != rhs->column) return std::nullopt;
    IntersectBounds(&*lhs, *rhs);
    return lhs;
  }
  return std::nullopt;
}

Status SelectPositions(const Expr& e, const LoweredSelect* lowered,
                       const Table& input, std::vector<size_t>* out) {
  if (lowered == nullptr ||
      input.column(lowered->column)->type() != lowered->type) {
    DC_ASSIGN_OR_RETURN(*out, EvaluatePredicate(e, input));
    return Status::OK();
  }
  out->clear();
  if (lowered->empty) return Status::OK();
  const Bat& col = *input.column(lowered->column);
  if (lowered->is_string) {
    *out = SelectEqString(col, lowered->str_value);
  } else if (col.type() == DataType::kDouble) {
    SelectRangeDouble(col, lowered->dlo, lowered->dhi, out);
  } else {
    SelectRangeInt64(col, lowered->ilo, lowered->ihi, out);
  }
  return Status::OK();
}

}  // namespace datacell
