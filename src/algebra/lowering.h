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

/// Predicate lowering and the one filter entry point. The interpreter's
/// Filter node lowers its predicate once, when its plan state is built, and
/// selects through SelectPositions on every run, so which predicates map
/// onto the select kernels, and with which bounds, is decided here once.

/// A filter predicate lowered onto one column of type `type`: an inclusive
/// range over an int64/timestamp or double column, or string equality.
/// `empty` marks a statically unsatisfiable predicate (e.g. `x < INT64_MIN`).
struct LoweredSelect {
  size_t column = 0;
  DataType type = DataType::kInt64;
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

/// Tries to express `e` as a single-column kernel selection: one comparison,
/// or an AND of comparisons on the same column (a range). Nulls never
/// qualify under either evaluator, so semantics match the generic path.
std::optional<LoweredSelect> TryLowerSelect(const Expr& e, const Schema& input);

/// The ascending positions of the rows of `input` where predicate `e` is
/// true, into `out` (replaced; its capacity is reused, so a lowered select
/// over a null-free numeric column allocates nothing once `out` has grown).
/// `lowered` is `e` as TryLowerSelect lowered it, or null when it did not:
/// its select kernel runs when the column still has the type it was lowered
/// for, and EvaluatePredicate otherwise.
Status SelectPositions(const Expr& e, const LoweredSelect* lowered,
                       const Table& input, std::vector<size_t>* out);

}  // namespace datacell

#endif  // DATACELL_ALGEBRA_LOWERING_H_
