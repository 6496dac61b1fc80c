#ifndef DATACELL_ALGEBRA_LOWERING_H_
#define DATACELL_ALGEBRA_LOWERING_H_

#include <optional>
#include <string>
#include <vector>

#include "algebra/expression.h"
#include "algebra/operators.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace datacell {

/// Predicate lowering shared between the tree interpreter and the
/// registration-time plan specializer. Both must agree bit-for-bit on which
/// predicates map onto the select kernels and with which bounds, so the
/// rules live here once. The interpreter lowers per firing; the specializer
/// lowers once at registration (it only needs the schema, not a table).

/// A filter predicate lowered onto one column: an inclusive range over an
/// int64/timestamp or double column, or string equality. `empty` marks a
/// statically unsatisfiable predicate (e.g. `x < INT64_MIN`).
struct LoweredSelect {
  size_t column = 0;
  bool empty = false;
  bool is_string = false;
  std::string str_value;
  std::optional<int64_t> ilo, ihi;
  std::optional<double> dlo, dhi;
};

/// Matches a constant operand: a plain literal, or a numeric literal under a
/// unary minus (the parser produces `-(k)` for negative constants, never a
/// negative literal token). The folded value lands in `out`.
bool MatchLiteral(const Expr& e, Value* out);

/// Extracts (column, cmp-op, numeric-or-string literal) from `e`, accepting
/// the literal on either side (the op is mirrored so the column reads as the
/// left operand). Returns false when the shape does not match.
bool MatchComparison(const Expr& e, const Schema& input, size_t* column,
                     BinaryOp* op, Value* literal);

/// Lowers one comparison into range bounds on `out`. Returns false when the
/// column/literal type combination is not kernel-representable (double
/// literal against an int column, a 64-bit int literal that does not
/// round-trip through double against a double column, NaN, string ops other
/// than equality).
bool LowerComparison(const Schema& input, size_t column, BinaryOp op,
                     const Value& literal, LoweredSelect* out);

/// Conjunction of two lowered ranges on the same column.
void IntersectBounds(LoweredSelect* into, const LoweredSelect& other);

/// Tries to express `e` as a single-column kernel selection: one comparison,
/// or an AND of two comparisons on the same column (a range). Nulls never
/// qualify under either evaluator, so semantics match the generic path.
std::optional<LoweredSelect> TryLowerSelect(const Expr& e, const Schema& input);

/// Executes a lowered selection over `input`, returning qualifying
/// positions. Dispatches to the null-aware Select* kernels.
std::vector<size_t> RunLoweredSelect(const LoweredSelect& sel,
                                     const Table& input);

}  // namespace datacell

#endif  // DATACELL_ALGEBRA_LOWERING_H_
