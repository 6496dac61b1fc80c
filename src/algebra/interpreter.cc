#include <algorithm>
#include <optional>

#include "algebra/lowering.h"
#include "algebra/plan.h"
#include "algebra/profile.h"
#include "common/check.h"

namespace datacell {

namespace {

Result<TablePtr> Exec(const PlanNode& n, const PlanBindings& bindings,
                      const ExecContext& ctx);

Result<TablePtr> ExecScan(const PlanNode& n, const PlanBindings& bindings) {
  auto it = bindings.find(n.scan_relation());
  if (it == bindings.end()) {
    return Status::NotFound("no binding for relation '" + n.scan_relation() +
                            "'");
  }
  const TablePtr& t = it->second;
  if (t->num_columns() != n.output_schema().num_fields()) {
    return Status::Internal("bound relation '" + n.scan_relation() +
                            "' arity differs from plan schema");
  }
  return t;
}

Result<TablePtr> ExecFilter(const PlanNode& n, const PlanBindings& bindings,
                            const ExecContext& ctx) {
  DC_ASSIGN_OR_RETURN(TablePtr in, Exec(*n.child(), bindings, ctx));
  std::vector<size_t> positions;
  DC_RETURN_NOT_OK(SelectPositions(*n.predicate(), *in, &positions));
  if (positions.size() == in->num_rows()) return in;  // nothing filtered out
  return TablePtr(in->Take(positions));
}

Result<TablePtr> ExecProject(const PlanNode& n, const PlanBindings& bindings,
                             const ExecContext& ctx) {
  DC_ASSIGN_OR_RETURN(TablePtr in, Exec(*n.child(), bindings, ctx));
  auto out = std::make_shared<Table>("", n.output_schema());
  for (size_t i = 0; i < n.projections().size(); ++i) {
    DC_ASSIGN_OR_RETURN(BatPtr col, EvaluateExpr(*n.projections()[i], *in));
    // EvaluateExpr may return a shared input column (zero-copy column ref);
    // the projected output aliases it, which is safe because results are
    // never mutated in place.
    out->column(i)->AppendBat(*col);
  }
  return out;
}

Result<TablePtr> ExecHashJoin(const PlanNode& n, const PlanBindings& bindings,
                              const ExecContext& ctx) {
  DC_ASSIGN_OR_RETURN(TablePtr left, Exec(*n.child(0), bindings, ctx));
  DC_ASSIGN_OR_RETURN(TablePtr right, Exec(*n.child(1), bindings, ctx));
  DC_ASSIGN_OR_RETURN(JoinResult jr,
                      HashJoin(*left->column(n.left_key()),
                               *right->column(n.right_key())));
  auto out = std::make_shared<Table>("", n.output_schema());
  size_t lcols = left->num_columns();
  for (size_t c = 0; c < lcols; ++c) {
    out->column(c)->AppendPositions(*left->column(c), jr.left_positions);
  }
  for (size_t c = 0; c < right->num_columns(); ++c) {
    out->column(lcols + c)->AppendPositions(*right->column(c),
                                            jr.right_positions);
  }
  return out;
}

Result<TablePtr> ExecAggregate(const PlanNode& n, const PlanBindings& bindings,
                               const ExecContext& ctx) {
  DC_ASSIGN_OR_RETURN(TablePtr in, Exec(*n.child(), bindings, ctx));
  auto out = std::make_shared<Table>("", n.output_schema());
  if (n.group_columns().empty()) {
    // Scalar aggregate: exactly one output row, even for empty input.
    Row row;
    for (const AggSpec& a : n.aggregates()) {
      AggPartial p;
      if (a.count_star) {
        p.count = static_cast<int64_t>(in->num_rows());
        // sum/min/max not meaningful for count(*); Finalize(kCount) is used.
      } else {
        DC_ASSIGN_OR_RETURN(
            p, AggregateAll(*in->column(a.input_column), nullptr));
      }
      row.push_back(p.Finalize(a.func));
    }
    DC_RETURN_NOT_OK(out->AppendRow(row));
    return out;
  }
  DC_ASSIGN_OR_RETURN(Grouping grouping, GroupBy(*in, n.group_columns()));
  // Group key columns: one value per group, from the representative row.
  size_t col = 0;
  for (size_t gc : n.group_columns()) {
    out->column(col)->AppendPositions(*in->column(gc),
                                      grouping.representatives);
    ++col;
  }
  for (const AggSpec& a : n.aggregates()) {
    BatPtr dst = out->column(col);
    if (a.count_star) {
      std::vector<int64_t> counts(grouping.num_groups, 0);
      for (size_t g : grouping.group_ids) ++counts[g];
      for (int64_t c : counts) dst->AppendInt64(c);
    } else {
      DC_ASSIGN_OR_RETURN(
          std::vector<AggPartial> partials,
          AggregateByGroup(*in->column(a.input_column), grouping));
      for (const AggPartial& p : partials) {
        DC_RETURN_NOT_OK(dst->AppendValue(p.Finalize(a.func)));
      }
    }
    ++col;
  }
  return out;
}

Result<TablePtr> ExecSort(const PlanNode& n, const PlanBindings& bindings,
                          const ExecContext& ctx) {
  DC_ASSIGN_OR_RETURN(TablePtr in, Exec(*n.child(), bindings, ctx));
  DC_ASSIGN_OR_RETURN(std::vector<size_t> perm,
                      SortPositions(*in, n.sort_keys()));
  return TablePtr(in->Take(perm));
}

Result<TablePtr> ExecDistinct(const PlanNode& n, const PlanBindings& bindings,
                              const ExecContext& ctx) {
  DC_ASSIGN_OR_RETURN(TablePtr in, Exec(*n.child(), bindings, ctx));
  std::vector<size_t> positions = DistinctPositions(*in);
  if (positions.size() == in->num_rows()) return in;
  return TablePtr(in->Take(positions));
}

Result<TablePtr> ExecLimit(const PlanNode& n, const PlanBindings& bindings,
                           const ExecContext& ctx) {
  DC_ASSIGN_OR_RETURN(TablePtr in, Exec(*n.child(), bindings, ctx));
  size_t offset = std::min(n.offset(), in->num_rows());
  size_t length = std::min(n.limit(), in->num_rows() - offset);
  if (offset == 0 && length == in->num_rows()) return in;
  return TablePtr(in->Slice(offset, length));
}

Result<TablePtr> ExecUnion(const PlanNode& n, const PlanBindings& bindings,
                           const ExecContext& ctx) {
  DC_ASSIGN_OR_RETURN(TablePtr left, Exec(*n.child(0), bindings, ctx));
  DC_ASSIGN_OR_RETURN(TablePtr right, Exec(*n.child(1), bindings, ctx));
  auto out = std::make_shared<Table>("", n.output_schema());
  DC_RETURN_NOT_OK(out->AppendTable(*left));
  DC_RETURN_NOT_OK(out->AppendTable(*right));
  return out;
}

Result<TablePtr> ExecNode(const PlanNode& n, const PlanBindings& bindings,
                          const ExecContext& ctx) {
  switch (n.kind()) {
    case PlanKind::kScan:
      return ExecScan(n, bindings);
    case PlanKind::kFilter:
      return ExecFilter(n, bindings, ctx);
    case PlanKind::kProject:
      return ExecProject(n, bindings, ctx);
    case PlanKind::kHashJoin:
      return ExecHashJoin(n, bindings, ctx);
    case PlanKind::kAggregate:
      return ExecAggregate(n, bindings, ctx);
    case PlanKind::kSort:
      return ExecSort(n, bindings, ctx);
    case PlanKind::kDistinct:
      return ExecDistinct(n, bindings, ctx);
    case PlanKind::kLimit:
      return ExecLimit(n, bindings, ctx);
    case PlanKind::kUnion:
      return ExecUnion(n, bindings, ctx);
  }
  return Status::Internal("bad plan kind");
}

/// Dispatch wrapper: with a profile in the context, every node's inclusive
/// time and output rows accumulate into its step. Input rows are derived at
/// render time from the children — this wrapper never sees them.
Result<TablePtr> Exec(const PlanNode& n, const PlanBindings& bindings,
                      const ExecContext& ctx) {
  if (ctx.profile == nullptr) return ExecNode(n, bindings, ctx);
  size_t step = ctx.profile->StepForNode(&n);
  if (step == PipelineProfile::kNoStep) return ExecNode(n, bindings, ctx);
  int64_t t0 = ProfileNowNs();
  Result<TablePtr> r = ExecNode(n, bindings, ctx);
  if (r.ok()) {
    ctx.profile->RecordStep(step, PipelineProfile::kRowsUnknown,
                            static_cast<int64_t>((*r)->num_rows()),
                            ProfileNowNs() - t0);
  }
  return r;
}

int ExplainRec(const PlanNode& n, int* next_var, std::string* out) {
  std::vector<int> child_vars;
  for (const PlanPtr& c : n.children()) {
    child_vars.push_back(ExplainRec(*c, next_var, out));
  }
  int var = (*next_var)++;
  auto emit = [&](const std::string& rhs) {
    *out += "X_" + std::to_string(var) + " := " + rhs + ";\n";
  };
  auto cv = [&](size_t i) { return "X_" + std::to_string(child_vars[i]); };
  switch (n.kind()) {
    case PlanKind::kScan:
      emit("basket.bind(\"" + n.scan_relation() + "\")");
      break;
    case PlanKind::kFilter:
      emit("algebra.select(" + cv(0) + ", " + n.predicate()->ToString() + ")");
      break;
    case PlanKind::kProject: {
      std::string rhs = "batcalc.project(" + cv(0);
      for (const ExprPtr& e : n.projections()) rhs += ", " + e->ToString();
      emit(rhs + ")");
      break;
    }
    case PlanKind::kHashJoin:
      emit("algebra.join(" + cv(0) + ", " + cv(1) + ")");
      break;
    case PlanKind::kAggregate: {
      std::string rhs = "aggr.group(" + cv(0);
      for (const AggSpec& a : n.aggregates()) {
        rhs += std::string(", ") + AggFuncToString(a.func);
      }
      emit(rhs + ")");
      break;
    }
    case PlanKind::kSort:
      emit("algebra.sort(" + cv(0) + ")");
      break;
    case PlanKind::kDistinct:
      emit("algebra.unique(" + cv(0) + ")");
      break;
    case PlanKind::kLimit:
      emit("algebra.slice(" + cv(0) + ", " + std::to_string(n.offset()) + ", " +
           std::to_string(n.limit()) + ")");
      break;
    case PlanKind::kUnion:
      emit("bat.union(" + cv(0) + ", " + cv(1) + ")");
      break;
  }
  return var;
}

}  // namespace

Result<TablePtr> ExecutePlan(const PlanNode& plan, const PlanBindings& bindings,
                             const ExecContext& ctx) {
  return Exec(plan, bindings, ctx);
}

Result<TablePtr> ExecutePlan(const PlanNode& plan,
                             const PlanBindings& bindings) {
  return Exec(plan, bindings, ExecContext{});
}

std::string ExplainMal(const PlanNode& plan) {
  std::string out;
  int next_var = 0;
  ExplainRec(plan, &next_var, &out);
  return out;
}

}  // namespace datacell
