#ifndef DATACELL_SQL_BINDER_H_
#define DATACELL_SQL_BINDER_H_

#include <string>
#include <vector>

#include "algebra/expression.h"
#include "sql/ast.h"
#include "storage/schema.h"

namespace datacell {
namespace sql {

/// Name-resolution scope: an ordered list of FROM sources, each contributing
/// a qualifier (alias or relation name) and a schema. Column positions are
/// global across the scope, in source order — matching the column layout of
/// the joined plan.
class Scope {
 public:
  void AddSource(std::string qualifier, const Schema& schema);

  /// Resolves `[qualifier.]column` to a global column index and type.
  /// Unqualified names must be unambiguous across all sources. `loc` (the
  /// reference's source position) is stamped on the result and rendered in
  /// resolution errors.
  Result<ExprPtr> ResolveColumn(const std::string& qualifier,
                                const std::string& column,
                                SourceLoc loc = {}) const;

  /// All columns in scope order (star expansion).
  std::vector<ExprPtr> AllColumns() const;
  /// Output field names in scope order.
  std::vector<std::string> AllColumnNames() const;

  size_t num_columns() const;
  /// The flattened schema of the whole scope.
  Schema CombinedSchema() const;

 private:
  struct Source {
    std::string qualifier;
    Schema schema;
    size_t offset;  // global index of this source's first column
  };
  std::vector<Source> sources_;
};

/// Binds an unresolved AST expression to a typed algebra expression against
/// `scope`. Aggregate function calls are rejected here — the planner handles
/// them structurally (this binder is for scalar contexts: WHERE, JOIN ON,
/// projection arguments).
Result<ExprPtr> BindScalarExpr(const AstExpr& ast, const Scope& scope);

/// True when `ast` contains an aggregate function call anywhere (scalar
/// function calls do not count).
bool ContainsAggregate(const AstExpr& ast);

/// Maps a lower-cased scalar function name to its ScalarFunc.
Result<ScalarFunc> ScalarFuncFromName(const std::string& lower_name);

/// Operand type rules for a binary operator (arithmetic needs numerics,
/// AND/OR booleans, LIKE strings, comparisons same storage family). Shared
/// by the scalar binder and the planner's post-aggregate rewriter so both
/// paths reject ill-typed SQL at bind time. Errors carry the operands'
/// source position when known.
Status CheckBinaryOperandTypes(AstBinaryOp op, const ExprPtr& l,
                               const ExprPtr& r);

/// Argument type rule for a scalar function call (`name` is for the error
/// message only).
Status CheckScalarFuncArg(ScalarFunc func, const std::string& name,
                          const ExprPtr& arg);

/// Binds an INSERT's literal rows against the target's user-addressable
/// schema (a basket's without its implicit ts column): the optional column
/// list places each value, omitted columns are NULL, and every row is
/// type-checked. An error binds no row, so the statement lands whole or not
/// at all.
Result<std::vector<Row>> BindInsertRows(const InsertStmt& stmt,
                                        const Schema& schema);

}  // namespace sql
}  // namespace datacell

#endif  // DATACELL_SQL_BINDER_H_
