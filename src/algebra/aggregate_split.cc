#include "algebra/aggregate_split.h"

#include <optional>
#include <string>
#include <utility>

#include "common/string_util.h"

namespace datacell {

namespace {

/// Decomposed aggregate: the partial specs plus, per original aggregate,
/// where its partial column(s) land.
struct PartialLayout {
  std::vector<AggSpec> partial_specs;
  // Per original aggregate: index of its main partial column (relative to
  // the partial-spec list) and, for avg, the index of its count partial.
  std::vector<std::pair<size_t, std::optional<size_t>>> slots;
};

PartialLayout DecomposeAggregates(const std::vector<AggSpec>& specs) {
  PartialLayout out;
  for (size_t j = 0; j < specs.size(); ++j) {
    const AggSpec& s = specs[j];
    if (s.func == AggFunc::kAvg) {
      AggSpec sum = s;
      sum.func = AggFunc::kSum;
      sum.output_name = "__p" + std::to_string(j) + "_sum";
      AggSpec cnt = s;
      cnt.func = AggFunc::kCount;
      cnt.output_name = "__p" + std::to_string(j) + "_cnt";
      out.slots.emplace_back(out.partial_specs.size(),
                             out.partial_specs.size() + 1);
      out.partial_specs.push_back(std::move(sum));
      out.partial_specs.push_back(std::move(cnt));
    } else {
      AggSpec p = s;
      p.output_name = "__p" + std::to_string(j);
      out.slots.emplace_back(out.partial_specs.size(), std::nullopt);
      out.partial_specs.push_back(std::move(p));
    }
  }
  return out;
}

/// Builds the merge-side re-aggregation over the partials scan and the
/// projection that reconstructs the original aggregate's exact output
/// schema (so the post-aggregate operators rebuild unchanged on top).
Result<PlanPtr> BuildReaggregate(const PlanNode& agg, const Schema& partials,
                                 const PartialLayout& layout) {
  size_t groups = agg.group_columns().size();
  DC_ASSIGN_OR_RETURN(PlanPtr scan, ScanPartials(partials));
  std::vector<size_t> group_cols(groups);
  for (size_t g = 0; g < groups; ++g) group_cols[g] = g;

  // Merge every partial column: counts and sums re-sum, min/max re-min/max.
  std::vector<AggSpec> merge_specs;
  for (size_t p = 0; p < layout.partial_specs.size(); ++p) {
    AggSpec m;
    switch (layout.partial_specs[p].func) {
      case AggFunc::kCount:
      case AggFunc::kSum:
        m.func = AggFunc::kSum;
        break;
      case AggFunc::kMin:
        m.func = AggFunc::kMin;
        break;
      case AggFunc::kMax:
        m.func = AggFunc::kMax;
        break;
      case AggFunc::kAvg:
        return Status::Internal("avg survived aggregate decomposition");
    }
    m.input_column = groups + p;
    m.output_name = "__m" + std::to_string(p);
    merge_specs.push_back(std::move(m));
  }
  DC_ASSIGN_OR_RETURN(PlanPtr merged,
                      MakeAggregate(scan, group_cols, merge_specs));

  // Reconstruct the original aggregate's output schema: group columns pass
  // through; count casts back to int64; avg becomes sum/count.
  const Schema& target = agg.output_schema();
  std::vector<ExprPtr> exprs;
  std::vector<std::string> names;
  for (size_t g = 0; g < groups; ++g) {
    const Field& f = target.field(g);
    exprs.push_back(Expr::Column(g, f.name, f.type));
    names.push_back(f.name);
  }
  const std::vector<AggSpec>& specs = agg.aggregates();
  for (size_t j = 0; j < specs.size(); ++j) {
    const Field& f = target.field(groups + j);
    size_t main_col = groups + layout.slots[j].first;
    ExprPtr main = Expr::Column(main_col, "", DataType::kDouble);
    switch (specs[j].func) {
      case AggFunc::kCount:
        exprs.push_back(Expr::Function(ScalarFunc::kToInt64, std::move(main)));
        break;
      case AggFunc::kSum:
      case AggFunc::kMin:
      case AggFunc::kMax:
        exprs.push_back(std::move(main));
        break;
      case AggFunc::kAvg: {
        size_t cnt_col = groups + *layout.slots[j].second;
        exprs.push_back(Expr::Binary(
            BinaryOp::kDiv, std::move(main),
            Expr::Column(cnt_col, "", DataType::kDouble)));
        break;
      }
    }
    names.push_back(f.name);
  }
  return MakeProject(merged, std::move(exprs), std::move(names));
}

bool IsSpineNode(PlanKind k) {
  return k == PlanKind::kFilter || k == PlanKind::kProject ||
         k == PlanKind::kDistinct || k == PlanKind::kSort ||
         k == PlanKind::kLimit;
}

}  // namespace

Result<AggregateSplit> SplitAggregate(const PlanPtr& plan) {
  std::vector<const PlanNode*> spine;  // root first
  const PlanNode* node = plan.get();
  while (IsSpineNode(node->kind())) {
    spine.push_back(node);
    node = node->child().get();
  }
  if (node->kind() != PlanKind::kAggregate) {
    return Status::Unimplemented("plan is not aggregate-topped");
  }
  PartialLayout layout = DecomposeAggregates(node->aggregates());
  AggregateSplit out;
  DC_ASSIGN_OR_RETURN(out.partial,
                      MakeAggregate(node->child(), node->group_columns(),
                                    layout.partial_specs));
  DC_ASSIGN_OR_RETURN(
      out.merge, BuildReaggregate(*node, out.partial->output_schema(), layout));
  for (auto it = spine.rbegin(); it != spine.rend(); ++it) {
    DC_ASSIGN_OR_RETURN(out.merge, RebuildAbove(std::move(out.merge), **it));
  }
  return out;
}

Schema PartialsRowSchema(const Schema& partial) {
  // The rule of Basket::HasTsColumn, which lives in core, above this
  // library: a trailing timestamp named ts is the basket's own.
  Schema row = partial;
  const size_t n = partial.num_fields();
  if (n == 0 || partial.field(n - 1).type != DataType::kTimestamp ||
      !EqualsIgnoreCase(partial.field(n - 1).name, "ts")) {
    row.AddField(Field{"ts", DataType::kTimestamp});
  }
  return row;
}

Result<PlanPtr> ScanPartials(const Schema& partial) {
  const Schema row = PartialsRowSchema(partial);
  DC_ASSIGN_OR_RETURN(PlanPtr scan, MakeScan(kPartialsBinding, row));
  if (row.num_fields() == partial.num_fields()) return scan;
  std::vector<ExprPtr> exprs;
  std::vector<std::string> names;
  for (size_t i = 0; i < partial.num_fields(); ++i) {
    const Field& f = partial.field(i);
    exprs.push_back(Expr::Column(i, f.name, f.type));
    names.push_back(f.name);
  }
  return MakeProject(std::move(scan), std::move(exprs), std::move(names));
}

Result<PlanPtr> RebuildAbove(PlanPtr base, const PlanNode& node) {
  switch (node.kind()) {
    case PlanKind::kFilter:
      return MakeFilter(std::move(base), node.predicate());
    case PlanKind::kProject: {
      std::vector<std::string> names;
      for (size_t i = 0; i < node.output_schema().num_fields(); ++i) {
        names.push_back(node.output_schema().field(i).name);
      }
      return MakeProject(std::move(base), node.projections(),
                         std::move(names));
    }
    case PlanKind::kDistinct:
      return MakeDistinct(std::move(base));
    case PlanKind::kSort:
      return MakeSort(std::move(base), node.sort_keys());
    case PlanKind::kLimit:
      return MakeLimit(std::move(base), node.offset(), node.limit());
    default:
      return Status::Internal("unexpected node above the merge boundary: " +
                              node.Describe());
  }
}

TablePtr PartialsRowTable(const Schema& partial,
                          const std::vector<TablePtr>& parts) {
  auto out = std::make_shared<Table>(kPartialsBinding,
                                     PartialsRowSchema(partial));
  const size_t width = partial.num_fields();
  for (const TablePtr& p : parts) {
    for (size_t c = 0; c < width; ++c) {
      out->column(c)->AppendBat(*p->column(c));
    }
    if (out->num_columns() > width) {
      out->column(width)->AppendConstantInt64(0, p->num_rows());
    }
  }
  return out;
}

}  // namespace datacell
