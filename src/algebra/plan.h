#ifndef DATACELL_ALGEBRA_PLAN_H_
#define DATACELL_ALGEBRA_PLAN_H_

#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "algebra/expression.h"
#include "algebra/operators.h"
#include "storage/table.h"

namespace datacell {

/// Physical plan node kinds. A plan is the compiled form of a (continuous)
/// query; a DataCell factory wraps one plan plus the basket plumbing. The
/// tree corresponds 1:1 to the linear MAL program MonetDB would produce —
/// `ExplainMal()` renders that correspondence.
enum class PlanKind {
  kScan,       // read a bound input relation by name
  kFilter,     // positions := predicate(child); project child
  kProject,    // per-row expressions -> new columns
  kHashJoin,   // equi-join of two children on one key column each
  kAggregate,  // optional group-by + aggregate functions
  kSort,       // order by
  kDistinct,   // duplicate elimination on the full row
  kLimit,      // offset/limit
  kUnion,      // bag union of two schema-compatible children
};

/// One aggregate computation: `func` applied to child column
/// `input_column` (ignored for count(*), flagged by `count_star`).
struct AggSpec {
  AggFunc func = AggFunc::kCount;
  size_t input_column = 0;
  bool count_star = false;
  std::string output_name;
};

class PlanNode;
using PlanPtr = std::shared_ptr<const PlanNode>;

/// Immutable physical plan node. Construct through the Make* factories,
/// which validate inputs and infer the output schema.
class PlanNode {
 public:
  PlanKind kind() const { return kind_; }
  const Schema& output_schema() const { return output_schema_; }
  const std::vector<PlanPtr>& children() const { return children_; }
  const PlanPtr& child(size_t i = 0) const { return children_[i]; }

  // kScan
  const std::string& scan_relation() const { return scan_relation_; }
  // kFilter
  const ExprPtr& predicate() const { return predicate_; }
  // kProject
  const std::vector<ExprPtr>& projections() const { return projections_; }
  // kHashJoin
  size_t left_key() const { return left_key_; }
  size_t right_key() const { return right_key_; }
  // kAggregate
  const std::vector<size_t>& group_columns() const { return group_columns_; }
  const std::vector<AggSpec>& aggregates() const { return aggregates_; }
  // kSort
  const std::vector<SortKey>& sort_keys() const { return sort_keys_; }
  // kLimit
  size_t limit() const { return limit_; }
  size_t offset() const { return offset_; }

  /// Every kScan relation name in the subtree, in visit order.
  std::vector<std::string> InputRelations() const;

  /// Single-line operator description, e.g. "Filter((a > 10))".
  std::string Describe() const;

  /// Multi-line indented tree rendering.
  std::string ToString() const;

 private:
  PlanNode() = default;
  friend Result<PlanPtr> MakeScan(std::string relation, Schema schema);
  friend Result<PlanPtr> MakeFilter(PlanPtr child, ExprPtr predicate);
  friend Result<PlanPtr> MakeProject(PlanPtr child,
                                     std::vector<ExprPtr> projections,
                                     std::vector<std::string> names);
  friend Result<PlanPtr> MakeHashJoin(PlanPtr left, PlanPtr right,
                                      size_t left_key, size_t right_key);
  friend Result<PlanPtr> MakeAggregate(PlanPtr child,
                                       std::vector<size_t> group_columns,
                                       std::vector<AggSpec> aggregates);
  friend Result<PlanPtr> MakeSort(PlanPtr child, std::vector<SortKey> keys);
  friend Result<PlanPtr> MakeDistinct(PlanPtr child);
  friend Result<PlanPtr> MakeLimit(PlanPtr child, size_t offset, size_t limit);
  friend Result<PlanPtr> MakeUnion(PlanPtr left, PlanPtr right);

  PlanKind kind_ = PlanKind::kScan;
  Schema output_schema_;
  std::vector<PlanPtr> children_;
  std::string scan_relation_;
  ExprPtr predicate_;
  std::vector<ExprPtr> projections_;
  size_t left_key_ = 0;
  size_t right_key_ = 0;
  std::vector<size_t> group_columns_;
  std::vector<AggSpec> aggregates_;
  std::vector<SortKey> sort_keys_;
  size_t limit_ = 0;
  size_t offset_ = 0;
};

/// Leaf: reads the relation bound to `relation` at execution time. `schema`
/// fixes the expected column layout (checked at execution).
Result<PlanPtr> MakeScan(std::string relation, Schema schema);
Result<PlanPtr> MakeFilter(PlanPtr child, ExprPtr predicate);
/// `names[i]` is the output column name of `projections[i]`.
Result<PlanPtr> MakeProject(PlanPtr child, std::vector<ExprPtr> projections,
                            std::vector<std::string> names);
/// Output schema = left columns followed by right columns.
Result<PlanPtr> MakeHashJoin(PlanPtr left, PlanPtr right, size_t left_key,
                             size_t right_key);
/// Output schema = group columns (child names) then one column per AggSpec.
/// With no group columns the result is exactly one row.
Result<PlanPtr> MakeAggregate(PlanPtr child, std::vector<size_t> group_columns,
                              std::vector<AggSpec> aggregates);
Result<PlanPtr> MakeSort(PlanPtr child, std::vector<SortKey> keys);
Result<PlanPtr> MakeDistinct(PlanPtr child);
/// limit == 0 with offset == 0 is rejected (use the child directly);
/// limit == SIZE_MAX means "no limit, offset only".
Result<PlanPtr> MakeLimit(PlanPtr child, size_t offset, size_t limit);
Result<PlanPtr> MakeUnion(PlanPtr left, PlanPtr right);

/// Input relations bound at execution time (baskets or tables).
using PlanBindings = std::map<std::string, TablePtr>;

class PipelineProfile;

/// Per-run state threaded from the factory into plan execution.
struct ExecContext {
  /// Per-step pipeline profiler (algebra/profile.h). Null — the default —
  /// disables profiling: executors pay one pointer test per step. The
  /// factory points this at its profile while profiling is on.
  PipelineProfile* profile = nullptr;
};

/// Executes `plan` against `bindings` with a fresh PlanState; returns the
/// result table. Pure: never mutates the inputs (consumption is the
/// *factory's* job, per the paper's separation between plan execution and
/// basket management). One-time SELECTs run here; continuous queries run
/// the same interpreter through a PlanRunner.
Result<TablePtr> ExecutePlan(const PlanNode& plan, const PlanBindings& bindings);

/// The interpreter's execution state for one plan: one node per PlanNode,
/// each keeping what pays across runs (interpreter.cc).
class PlanState;

/// One plan fixed for a query's lifetime, run per firing by the
/// interpreter. The PlanState built at construction resolves every scan,
/// lowers every filter predicate once and keeps, between runs:
///   - a filter's candidate list: the positions it selected, handed to its
///     parent instead of a copied table. A Project gathers column refs
///     through it; an Aggregate aggregates through it;
///   - a HashJoin's kernel::Int64HashIndex, when its build side is a scan of
///     a static binding on one integer-backed key: built on first use and
///     rebuilt whenever the table's row count moves (catalog tables are
///     append-only). Every other join runs HashJoin per call;
///   - a single integer-backed GROUP BY's kernel::Int64GroupTable; other
///     keys run GroupBy per call.
/// Factories and window executors run every plan through one.
class PlanRunner {
 public:
  /// `stream_relations` are the bind names of the plan's stream inputs, in
  /// the order Run() receives their slices; `static_bindings` resolves the
  /// scans of catalog tables. With `fresh_state` every Run() starts from a
  /// new PlanState, which keeps nothing from the previous run (the
  /// reference the differential harness compares kept state against).
  PlanRunner(PlanPtr plan, std::vector<std::string> stream_relations,
             PlanBindings static_bindings, bool fresh_state);
  ~PlanRunner();

  /// Runs the plan over one slice per stream input. Not thread-safe: the
  /// factory's exactly-once Fire() serialises calls.
  Result<TablePtr> Run(std::span<const TablePtr> inputs,
                       const ExecContext& ctx);

  /// The node tree with what each node keeps, for \explain.
  std::string Describe() const;
  /// Bytes of the state kept between runs: each kept join's build table
  /// (strings priced at `string_bytes`) and hash index, and each kept group
  /// table's slots — what the pass-4 analyzer bounds.
  size_t StateBytes(int64_t string_bytes) const;
  /// Adds one step per plan node to `profile` (preorder, indented by
  /// depth); Run() then records each node's own rows and time there. Call
  /// once, before the first profiled Run().
  void RegisterProfileSteps(PipelineProfile* profile);

 private:
  PlanPtr plan_;
  std::vector<std::string> stream_relations_;
  PlanBindings static_bindings_;
  bool fresh_state_;
  std::unique_ptr<PlanState> state_;
  // Node labels and depths in preorder, fixed at construction.
  std::vector<std::pair<std::string, int>> labels_;
  size_t first_step_;  // profile step of the root; kNoStep before Register
};

/// Renders `plan` as the equivalent MAL program, e.g.
///   X_0 := basket.bind("R");
///   X_1 := algebra.select(X_0, (a > 10));
/// Mirrors the paper's Algorithm 1 for explain/debug output.
std::string ExplainMal(const PlanNode& plan);

}  // namespace datacell

#endif  // DATACELL_ALGEBRA_PLAN_H_
