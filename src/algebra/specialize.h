#ifndef DATACELL_ALGEBRA_SPECIALIZE_H_
#define DATACELL_ALGEBRA_SPECIALIZE_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "algebra/kernels.h"
#include "algebra/plan.h"
#include "algebra/profile.h"

namespace datacell {

/// Registration-time plan specialization.
///
/// A continuous query's plan is fixed for the query's whole lifetime, so the
/// per-firing work of the tree interpreter — walking PlanNode children,
/// copying the binding map, rebuilding a join's hash table and a GROUP BY's
/// hash map — is pure overhead on the hot path. SpecializePlan() does that
/// once at SubmitContinuousQuery time and emits a SpecializedPipeline: a
/// flat chain of pre-bound steps the factory drives directly with each
/// drained batch.
///
/// The supported shape is the canonical continuous-query chain the SQL
/// planner emits (each stage optional):
///
///   [Project... -> Aggregate [GROUP BY one int key]] -> [Project] ->
///       [Filter...] -> (Scan(stream) | HashJoin(Scan(stream), Scan(static)))
///
/// Registration keeps only the work that pays off across firings: the
/// resolved chain, the join's hash index and the GROUP BY table. Every
/// per-row expression runs through the interpreter's one evaluator:
///   - filters: stacked Filter nodes merge into one AND, which each firing
///     selects through SelectPositions (lowering.h), the function the
///     interpreter's Filter node calls: the lowered select kernel when the
///     predicate fits, EvaluatePredicate otherwise. A constant predicate is
///     evaluated like any other (the analyzer warns about it separately);
///   - projections: a column reference is gathered once through the
///     filter's positions; any other expression is EvaluateExpr over the
///     selected rows, which is the interpreter's Filter then Project.
///     Projections over the aggregate's output (one row per group) run
///     through EvaluateExpr too;
///   - aggregates: count(*)/count/sum/min/max/avg over column references,
///     either scalar or grouped by exactly one integer-backed (int or
///     timestamp) column; a grouped stage assigns group ids through a
///     kernel::Int64GroupTable the pipeline keeps across firings and
///     accumulates typed per-group arrays in input row order;
///   - join: stream on the probe side, integer-backed keys; the hash index
///     over the static side is built once and probed per firing.
///
/// Anything else (multi-column or string/double/bool group keys, computed
/// aggregate inputs or group keys, HAVING, sort/distinct/limit/union, ...)
/// falls back to the interpreter with a human-readable reason, surfaced per
/// query via the shell's \explain and counted by the engine's metrics. Each
/// step runs the same bulk kernel or evaluator the interpreter uses, so
/// results are identical to the interpreter's, bit for bit.
class SpecializedPipeline {
 public:
  /// Executes the compiled chain over one drained input batch. Not
  /// thread-safe: the factory's exactly-once Fire() discipline serialises
  /// calls.
  Result<TablePtr> Run(const Table& input, const ExecContext& ctx);

  /// Human-readable step list for \explain.
  std::string Describe() const { return description_; }

  /// Pass-4 state accounting: bytes of the cross-firing state the pipeline
  /// owns — the registration-built join state (build-side table estimated at
  /// `string_bytes` per string value, plus the hash index arrays) and the
  /// GROUP BY table's slot array. 0 for pipelines with neither.
  size_t StateBytes(int64_t string_bytes) const;

  /// Registers this pipeline's stages as profile steps (one per present
  /// stage, in execution order) and remembers their indices; Run() then
  /// accumulates per-stage rows and time whenever the ExecContext carries
  /// that profile. Each stage records its own span, so stage times sum to
  /// the measured work. Call once, at factory creation.
  void RegisterProfileSteps(PipelineProfile* profile);

 private:
  friend class PipelineBuilder;

  /// Compiled scalar aggregate.
  struct Agg {
    AggFunc func = AggFunc::kCount;
    bool count_star = false;
    size_t column = 0;
    DataType col_type = DataType::kInt64;
  };

  /// Stream ⋈ static-table step. The hash index is (re)built lazily when
  /// the static table's row count moves — catalog tables are append-only,
  /// so a count check detects staleness.
  struct Join {
    size_t probe_key = 0;
    size_t build_key = 0;
    TablePtr build_table;
    Schema mid_schema;
    kernel::Int64HashIndex index;
    size_t built_rows = static_cast<size_t>(-1);
  };

  /// GROUP BY over one integer-backed source column. The table persists
  /// across firings (Group() restarts it in O(1)), so steady-state firings
  /// allocate nothing for grouping.
  struct GroupKey {
    size_t column = 0;
    kernel::Int64GroupTable table;
  };

  /// The filter step: selects into sel_; does nothing without a filter.
  Status Select(const Table& in, PipelineProfile* prof);
  Result<TablePtr> RunStages(const Table& in, const ExecContext& ctx);
  Result<TablePtr> RunAggregate(const Table& in, const ExecContext& ctx);
  Result<TablePtr> RunGroupAggregate(const Table& in, const ExecContext& ctx);
  Status AccumulateGroups(const Agg& g, const Table& in,
                          const std::vector<size_t>* rows, size_t groups,
                          Bat* out);
  Result<TablePtr> RunPostProjections(TablePtr agg_out,
                                      PipelineProfile* prof) const;

  size_t input_arity_ = 0;
  std::optional<Join> join_;
  ExprPtr filter_;  // the stacked filters' conjunction; null without one
  std::optional<std::vector<ExprPtr>> project_;
  std::optional<std::vector<Agg>> aggregates_;
  std::optional<GroupKey> group_;  // set for a grouped aggregate
  // Projections applied to the aggregate output, innermost first (the
  // planner places a Project above every Aggregate to reorder/derive the
  // final columns).
  std::vector<std::pair<std::vector<ExprPtr>, Schema>> post_projects_;
  Schema agg_schema_;  // aggregate output schema, the post-projection input
  Schema output_schema_;
  std::string description_;
  // Profile step indices (kNoStep when the stage is absent or no profile was
  // registered). The pipeline holds indices only; the profile itself arrives
  // per-run through the ExecContext, keeping the disabled path at one null
  // check.
  size_t join_step_ = PipelineProfile::kNoStep;
  size_t filter_step_ = PipelineProfile::kNoStep;
  size_t project_step_ = PipelineProfile::kNoStep;
  size_t agg_step_ = PipelineProfile::kNoStep;
  size_t post_step_ = PipelineProfile::kNoStep;
  // Reused per-firing scratch (exclusive to the owning factory's Fire()).
  std::vector<size_t> sel_, probe_pos_, build_pos_;
  std::vector<size_t> group_reps_;    // first row of each group
  std::vector<uint32_t> group_ids_;   // group of each aggregated row
  std::vector<int64_t> group_count_;  // per-group non-null input count
  std::vector<double> group_acc_;     // per-group sum / min / max
};

/// Outcome of a specialization attempt: exactly one of `pipeline` (success)
/// or `fallback_reason` (the interpreter stays in charge) is set.
struct SpecializeResult {
  std::unique_ptr<SpecializedPipeline> pipeline;
  std::string fallback_reason;
};

/// Compiles `plan` into a specialized pipeline. `stream_relation` names the
/// (single) streaming input's bind name; `static_bindings` resolves scans of
/// catalog tables (the build side of stream–table joins).
SpecializeResult SpecializePlan(const PlanNode& plan,
                                const std::string& stream_relation,
                                const PlanBindings& static_bindings);

/// One plan fixed for a query's lifetime, run per firing: through the
/// pipeline SpecializePlan compiled at construction when `specialize` is set
/// and the plan has one stream input and compiles, else through the
/// interpreter. Factories and window executors run every plan through one.
class PlanRunner {
 public:
  /// `stream_relations` are the bind names of the plan's stream inputs, in
  /// the order Run() receives their slices; `static_bindings` resolves the
  /// scans of catalog tables.
  PlanRunner(PlanPtr plan, std::vector<std::string> stream_relations,
             PlanBindings static_bindings, bool specialize);

  /// Runs the plan over one slice per stream input. Not thread-safe, like
  /// SpecializedPipeline::Run.
  Result<TablePtr> Run(std::span<const TablePtr> inputs,
                       const ExecContext& ctx);

  bool specialized() const { return pipeline_ != nullptr; }
  /// Why specialization was not applied (empty when it was).
  const std::string& fallback_reason() const { return fallback_reason_; }
  /// The specialized step list, or the interpreter with its fallback reason.
  std::string Describe() const;
  /// SpecializedPipeline::StateBytes; 0 on the interpreter.
  size_t StateBytes(int64_t string_bytes) const;
  /// Adds this runner's steps to `profile`: one per specialized stage, or
  /// one per plan node. Call once, before the first profiled Run().
  void RegisterProfileSteps(PipelineProfile* profile);

 private:
  PlanPtr plan_;
  std::vector<std::string> stream_relations_;
  PlanBindings static_bindings_;
  std::unique_ptr<SpecializedPipeline> pipeline_;
  std::string fallback_reason_;
};

}  // namespace datacell

#endif  // DATACELL_ALGEBRA_SPECIALIZE_H_
