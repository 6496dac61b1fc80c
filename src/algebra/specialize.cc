#include "algebra/specialize.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "algebra/expression.h"
#include "algebra/lowering.h"
#include "algebra/operators.h"
#include "common/check.h"

namespace datacell {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Appends `src` at `rows` to `dst`, or all of `src` when `rows` is null.
void Gather(const Bat& src, const std::vector<size_t>* rows, Bat* dst) {
  if (rows != nullptr) {
    dst->AppendPositions(src, *rows);
  } else {
    dst->AppendBat(src);
  }
}

}  // namespace

// Compiles a PlanNode tree into a SpecializedPipeline, or reports why it
// cannot. All shape checks live here so Run() never re-validates; any
// mismatch with the interpreter's supported shapes must fail compilation,
// never produce a divergent pipeline.
class PipelineBuilder {
 public:
  PipelineBuilder(const std::string& stream, const PlanBindings& statics)
      : stream_(stream), statics_(statics) {}

  SpecializeResult Build(const PlanNode& root);

 private:
  using Agg = SpecializedPipeline::Agg;

  static SpecializeResult Fail(std::string reason) {
    SpecializeResult r;
    r.fallback_reason = std::move(reason);
    return r;
  }

  const std::string& stream_;
  const PlanBindings& statics_;
};

SpecializeResult PipelineBuilder::Build(const PlanNode& root) {
  auto pipe = std::make_unique<SpecializedPipeline>();
  const PlanNode* n = &root;
  const PlanNode* aggnode = nullptr;
  const PlanNode* pre = nullptr;      // ref-only projection under aggregate
  const PlanNode* projectnode = nullptr;
  // Projections over the aggregate rows, root first.
  std::vector<const PlanNode*> posts;

  // The planner roots every aggregating query as Project(Aggregate(...)) —
  // the post-projection reorders or derives the final columns from the
  // aggregate output. A merge plan (algebra/aggregate_split.h) stacks the
  // query's projection on the one that restores the aggregate's schema.
  const PlanNode* top = n;
  while (top->kind() == PlanKind::kProject) {
    posts.push_back(top);
    top = top->child().get();
  }
  if (!posts.empty() && top->kind() == PlanKind::kAggregate) {
    n = top;
  } else {
    posts.clear();
  }
  if (n->kind() == PlanKind::kAggregate) {
    if (n->group_columns().size() > 1) {
      return Fail("GROUP BY on " + std::to_string(n->group_columns().size()) +
                  " columns");
    }
    aggnode = n;
    n = n->child().get();
    if (n->kind() == PlanKind::kProject) {
      // Aggregate inputs (and the group key) must be plain column refs
      // through the pre-projection so they can be read straight from the
      // projection's input.
      for (const AggSpec& a : aggnode->aggregates()) {
        if (!a.count_star && n->projections()[a.input_column]->kind() !=
                                 ExprKind::kColumnRef) {
          return Fail("aggregate input is a computed projection");
        }
      }
      for (size_t gc : aggnode->group_columns()) {
        if (n->projections()[gc]->kind() != ExprKind::kColumnRef) {
          return Fail("GROUP BY key is a computed expression");
        }
      }
      pre = n;
      n = n->child().get();
    }
  } else if (n->kind() == PlanKind::kProject) {
    projectnode = n;
    n = n->child().get();
  }

  std::vector<const PlanNode*> filters;
  while (n->kind() == PlanKind::kFilter) {
    filters.push_back(n);
    n = n->child().get();
  }

  Schema source;  // schema the filter/project/aggregate stages see
  std::string build_name;
  if (n->kind() == PlanKind::kScan) {
    if (n->scan_relation() != stream_) {
      return Fail("scan of non-stream relation '" + n->scan_relation() + "'");
    }
    source = n->output_schema();
    pipe->input_arity_ = source.num_fields();
  } else if (n->kind() == PlanKind::kHashJoin) {
    const PlanNode& j = *n;
    const PlanNode* l = j.child(0).get();
    const PlanNode* r = j.child(1).get();
    if (l->kind() != PlanKind::kScan || r->kind() != PlanKind::kScan) {
      return Fail("join input is not a plain scan");
    }
    if (l->scan_relation() != stream_) {
      return Fail("stream is not the probe (left) side of the join");
    }
    auto it = statics_.find(r->scan_relation());
    if (it == statics_.end() || it->second == nullptr) {
      return Fail("join build side '" + r->scan_relation() +
                  "' is not a bound static table");
    }
    if (it->second->num_columns() != r->output_schema().num_fields()) {
      return Fail("join build side arity mismatch");
    }
    DataType lk = l->output_schema().field(j.left_key()).type;
    DataType rk = r->output_schema().field(j.right_key()).type;
    if (!IsIntegerBacked(lk) || !IsIntegerBacked(rk)) {
      return Fail("join key is not integer-backed");
    }
    SpecializedPipeline::Join jn;
    jn.probe_key = j.left_key();
    jn.build_key = j.right_key();
    jn.build_table = it->second;
    jn.mid_schema = j.output_schema();
    pipe->join_.emplace(std::move(jn));
    source = j.output_schema();
    pipe->input_arity_ = l->output_schema().num_fields();
    build_name = r->scan_relation();
  } else {
    return Fail("unsupported operator: " + n->Describe());
  }

  // Stacked filters merge bottom-up into one conjunction. Each filter only
  // drops rows, so a row survives the stack iff it satisfies every
  // predicate, and all of them read the source schema.
  for (auto fit = filters.rbegin(); fit != filters.rend(); ++fit) {
    const ExprPtr& p = (*fit)->predicate();
    pipe->filter_ = pipe->filter_ ? Expr::And(pipe->filter_, p) : p;
  }
  if (projectnode != nullptr) pipe->project_ = projectnode->projections();

  // Aggregate inputs and the group key resolve through the (column-ref-only)
  // pre-projection to source columns.
  auto source_column = [&](size_t agg_input) {
    return pre != nullptr ? pre->projections()[agg_input]->column_index()
                          : agg_input;
  };
  if (aggnode != nullptr && !aggnode->group_columns().empty()) {
    size_t key = source_column(aggnode->group_columns()[0]);
    if (key >= source.num_fields()) return Fail("GROUP BY key out of range");
    DataType kt = source.field(key).type;
    if (!IsIntegerBacked(kt)) {
      return Fail(std::string("GROUP BY key of type ") + DataTypeToString(kt));
    }
    pipe->group_.emplace();
    pipe->group_->column = key;
  }
  if (aggnode != nullptr) {
    std::vector<Agg> aggs;
    for (const AggSpec& a : aggnode->aggregates()) {
      Agg g;
      g.func = a.func;
      g.count_star = a.count_star;
      if (!a.count_star) {
        size_t col = source_column(a.input_column);
        if (col >= source.num_fields()) {
          return Fail("aggregate input column out of range");
        }
        g.column = col;
        g.col_type = source.field(col).type;
        // The grouped stage reads values as numbers for every function; the
        // interpreter rejects string inputs there, so leave them to it.
        if (g.col_type == DataType::kString &&
            (a.func != AggFunc::kCount || pipe->group_)) {
          return Fail("aggregate over a string column");
        }
      }
      aggs.push_back(g);
    }
    pipe->aggregates_.emplace(std::move(aggs));
    pipe->agg_schema_ = aggnode->output_schema();
  }

  for (auto it = posts.rbegin(); it != posts.rend(); ++it) {
    pipe->post_projects_.push_back({(*it)->projections(),
                                    (*it)->output_schema()});
  }

  pipe->output_schema_ = root.output_schema();

  // Human-readable step list for \explain, in execution order.
  std::string d = "specialized pipeline:\n";
  int step = 1;
  d += "  " + std::to_string(step++) + ". scan " + stream_ + " (" +
       std::to_string(pipe->input_arity_) + " columns)\n";
  if (pipe->join_) {
    d += "  " + std::to_string(step++) + ". hash-join probe: " + stream_ +
         "[" + std::to_string(pipe->join_->probe_key) + "] = " + build_name +
         "[" + std::to_string(pipe->join_->build_key) +
         "] (index over the static side, rebuilt only when it grows)\n";
  }
  if (pipe->filter_) {
    d += "  " + std::to_string(step++) + ". filter: " +
         pipe->filter_->ToString() + "\n";
    auto lowered = TryLowerSelect(*pipe->filter_, source);
    if (lowered && !lowered->is_string) d += "       [kernel range select]\n";
  }
  if (projectnode != nullptr) {
    std::string cols;
    for (size_t i = 0; i < projectnode->projections().size(); ++i) {
      if (i > 0) cols += ", ";
      cols += projectnode->projections()[i]->ToString();
    }
    d += "  " + std::to_string(step++) + ". project: " + cols + "\n";
  }
  if (aggnode != nullptr) {
    std::string cols;
    for (size_t i = 0; i < aggnode->aggregates().size(); ++i) {
      const AggSpec& a = aggnode->aggregates()[i];
      if (i > 0) cols += ", ";
      cols += std::string(AggFuncToString(a.func)) + "(" +
              (a.count_star ? "*"
                            : source.field((*pipe->aggregates_)[i].column).name) +
              ")";
    }
    d += "  " + std::to_string(step++) + ". aggregate: " + cols;
    if (pipe->group_) {
      d += " group by " + source.field(pipe->group_->column).name +
           " (int64 group table, reused across firings)";
    }
    d += "\n";
  }
  if (!posts.empty()) {
    std::string cols;
    for (size_t i = 0; i < root.output_schema().num_fields(); ++i) {
      if (i > 0) cols += ", ";
      cols += root.output_schema().field(i).name;
    }
    d += "  " + std::to_string(step++) + ". project result: " + cols + "\n";
  }
  pipe->description_ = std::move(d);

  SpecializeResult res;
  res.pipeline = std::move(pipe);
  return res;
}

SpecializeResult SpecializePlan(const PlanNode& plan,
                                const std::string& stream_relation,
                                const PlanBindings& static_bindings) {
  PipelineBuilder b(stream_relation, static_bindings);
  return b.Build(plan);
}

// --- Runtime ------------------------------------------------------------

size_t SpecializedPipeline::StateBytes(int64_t string_bytes) const {
  size_t bytes = group_ ? group_->table.memory_bytes() : 0;
  if (join_ && join_->build_table != nullptr) {
    const Table& build = *join_->build_table;
    int64_t row_bytes = build.schema().EstimatedRowBytes(string_bytes);
    bytes += build.num_rows() * static_cast<size_t>(row_bytes) +
             join_->index.memory_bytes();
  }
  return bytes;
}

void SpecializedPipeline::RegisterProfileSteps(PipelineProfile* profile) {
  if (join_) join_step_ = profile->AddStep("hash-join probe", 0);
  if (filter_) filter_step_ = profile->AddStep("filter", 0);
  if (project_) project_step_ = profile->AddStep("project", 0);
  if (aggregates_) agg_step_ = profile->AddStep("aggregate", 0);
  if (!post_projects_.empty()) {
    post_step_ = profile->AddStep("post-project", 0);
  }
  if (!project_ && !aggregates_) {
    project_step_ = profile->AddStep("materialize", 0);
  }
}

Status SpecializedPipeline::Select(const Table& in, PipelineProfile* prof) {
  if (!filter_) return Status::OK();
  int64_t t0 = prof != nullptr ? ProfileNowNs() : 0;
  DC_RETURN_NOT_OK(SelectPositions(*filter_, in, &sel_));
  if (prof != nullptr) {
    prof->RecordStep(filter_step_, static_cast<int64_t>(in.num_rows()),
                     static_cast<int64_t>(sel_.size()), ProfileNowNs() - t0);
  }
  return Status::OK();
}

Result<TablePtr> SpecializedPipeline::RunAggregate(const Table& in,
                                                   const ExecContext& ctx) {
  PipelineProfile* prof = ctx.profile;
  DC_RETURN_NOT_OK(Select(in, prof));
  // The aggregates read every row, or the filter's positions.
  const std::vector<size_t>* positions = filter_ ? &sel_ : nullptr;
  int64_t t0 = prof != nullptr ? ProfileNowNs() : 0;
  size_t agg_in = positions != nullptr ? positions->size() : in.num_rows();
  auto out = std::make_shared<Table>("", agg_schema_);
  Row row;
  row.reserve(aggregates_->size());
  for (const Agg& g : *aggregates_) {
    AggPartial p;
    if (g.count_star) {
      p.count = static_cast<int64_t>(agg_in);
    } else {
      DC_ASSIGN_OR_RETURN(p, AggregateAll(*in.column(g.column), positions));
    }
    row.push_back(p.Finalize(g.func));
  }
  if (prof != nullptr) {
    prof->RecordStep(agg_step_, static_cast<int64_t>(agg_in), 1,
                     ProfileNowNs() - t0);
  }
  DC_RETURN_NOT_OK(out->AppendRow(row));
  return RunPostProjections(std::move(out), prof);
}

Result<TablePtr> SpecializedPipeline::RunPostProjections(
    TablePtr agg_out, PipelineProfile* prof) const {
  if (post_projects_.empty()) return agg_out;
  // The aggregate output is one row per group, so each projection runs
  // through the interpreter's expression evaluator, as ExecProject does.
  int64_t pt0 = prof != nullptr ? ProfileNowNs() : 0;
  const auto rows = static_cast<int64_t>(agg_out->num_rows());
  TablePtr cur = std::move(agg_out);
  for (const auto& [exprs, schema] : post_projects_) {
    auto next = std::make_shared<Table>("", schema);
    for (size_t i = 0; i < exprs.size(); ++i) {
      DC_ASSIGN_OR_RETURN(BatPtr col, EvaluateExpr(*exprs[i], *cur));
      next->column(i)->AppendBat(*col);
    }
    cur = std::move(next);
  }
  if (prof != nullptr) {
    prof->RecordStep(post_step_, rows, rows, ProfileNowNs() - pt0);
  }
  return cur;
}

Status SpecializedPipeline::AccumulateGroups(const Agg& g, const Table& in,
                                             const std::vector<size_t>* rows,
                                             size_t groups, Bat* out) {
  size_t n = group_ids_.size();
  const uint32_t* gid = group_ids_.data();
  const size_t* pos = rows != nullptr ? rows->data() : nullptr;
  const Bat* col = g.count_star ? nullptr : in.column(g.column).get();
  const uint8_t* valid = col != nullptr ? col->validity_data() : nullptr;
  // Visits the aggregated rows in input order, skipping null values.
  auto each = [&](auto update) {
    for (size_t k = 0; k < n; ++k) {
      size_t p = pos != nullptr ? pos[k] : k;
      if (valid != nullptr && valid[p] == 0) continue;
      update(gid[k], p);
    }
  };
  group_count_.assign(groups, 0);
  if (g.func == AggFunc::kCount) {
    each([&](uint32_t grp, size_t) { ++group_count_[grp]; });
    int64_t* dst = out->AppendUninitializedInt64(groups);
    std::copy(group_count_.begin(), group_count_.end(), dst);
    return Status::OK();
  }
  // One typed accumulator per group, updated exactly as AggPartial::AddValue
  // does (same operations, same row order), so results are bit-identical.
  double init = g.func == AggFunc::kMin   ? kInf
                : g.func == AggFunc::kMax ? -kInf
                                          : 0.0;
  group_acc_.assign(groups, init);
  auto fold = [&](auto value_at) {
    switch (g.func) {
      case AggFunc::kMin:
        each([&](uint32_t grp, size_t p) {
          double v = value_at(p);
          ++group_count_[grp];
          if (v < group_acc_[grp]) group_acc_[grp] = v;
        });
        break;
      case AggFunc::kMax:
        each([&](uint32_t grp, size_t p) {
          double v = value_at(p);
          ++group_count_[grp];
          if (v > group_acc_[grp]) group_acc_[grp] = v;
        });
        break;
      default:  // sum, avg
        each([&](uint32_t grp, size_t p) {
          ++group_count_[grp];
          group_acc_[grp] += value_at(p);
        });
        break;
    }
  };
  switch (col->type()) {
    case DataType::kDouble: {
      const double* d = col->double_data().data();
      fold([d](size_t p) { return d[p]; });
      break;
    }
    case DataType::kBool: {
      const uint8_t* d = col->bool_data().data();
      fold([d](size_t p) { return d[p] != 0 ? 1.0 : 0.0; });
      break;
    }
    default: {
      const int64_t* d = col->int64_data().data();
      fold([d](size_t p) { return static_cast<double>(d[p]); });
      break;
    }
  }
  // Finalize exactly like AggPartial::Finalize: a group whose values were
  // all null yields null.
  bool avg = g.func == AggFunc::kAvg;
  for (size_t i = 0; i < groups; ++i) {
    if (group_count_[i] == 0) {
      out->AppendNull();
    } else {
      out->AppendDouble(avg ? group_acc_[i] /
                                  static_cast<double>(group_count_[i])
                            : group_acc_[i]);
    }
  }
  return Status::OK();
}

Result<TablePtr> SpecializedPipeline::RunGroupAggregate(
    const Table& in, const ExecContext& ctx) {
  PipelineProfile* prof = ctx.profile;
  DC_RETURN_NOT_OK(Select(in, prof));
  // The filter's selection vector, when there is one, drives the row order.
  const std::vector<size_t>* rows = filter_ ? &sel_ : nullptr;
  size_t nrows = rows != nullptr ? rows->size() : in.num_rows();
  int64_t at0 = prof != nullptr ? ProfileNowNs() : 0;
  const Bat& key = *in.column(group_->column);
  group_ids_.resize(nrows);
  group_reps_.clear();
  size_t groups = group_->table.Group(
      key.int64_data().data(), key.validity_data(),
      rows != nullptr ? rows->data() : nullptr, nrows, group_ids_.data(),
      &group_reps_);
  // Without a post-projection the aggregate output is the result.
  auto agg_out = std::make_shared<Table>("", agg_schema_);
  agg_out->column(0)->AppendPositions(key, group_reps_);
  const std::vector<Agg>& aggs = *aggregates_;
  for (size_t i = 0; i < aggs.size(); ++i) {
    DC_RETURN_NOT_OK(AccumulateGroups(aggs[i], in, rows, groups,
                                      agg_out->column(i + 1).get()));
  }
  if (prof != nullptr) {
    prof->RecordStep(agg_step_, static_cast<int64_t>(nrows),
                     static_cast<int64_t>(groups), ProfileNowNs() - at0);
  }
  return RunPostProjections(std::move(agg_out), prof);
}

Result<TablePtr> SpecializedPipeline::RunStages(const Table& in,
                                                const ExecContext& ctx) {
  if (group_) return RunGroupAggregate(in, ctx);
  if (aggregates_) return RunAggregate(in, ctx);
  PipelineProfile* prof = ctx.profile;
  DC_RETURN_NOT_OK(Select(in, prof));
  const std::vector<size_t>* rows = filter_ ? &sel_ : nullptr;
  const auto nrows =
      static_cast<int64_t>(rows != nullptr ? rows->size() : in.num_rows());
  int64_t t0 = prof != nullptr ? ProfileNowNs() : 0;
  auto out = std::make_shared<Table>("", output_schema_);
  if (project_) {
    // A column reference is gathered through the positions; any other
    // projection evaluates over the selected rows, as the interpreter's
    // Filter then Project does.
    std::unique_ptr<Table> selected;
    for (size_t i = 0; i < project_->size(); ++i) {
      const Expr& e = *(*project_)[i];
      if (e.kind() == ExprKind::kColumnRef) {
        Gather(*in.column(e.column_index()), rows, out->column(i).get());
        continue;
      }
      if (rows != nullptr && selected == nullptr) selected = in.Take(*rows);
      DC_ASSIGN_OR_RETURN(BatPtr col,
                          EvaluateExpr(e, rows != nullptr ? *selected : in));
      out->column(i)->AppendBat(*col);
    }
  } else {
    for (size_t c = 0; c < in.num_columns(); ++c) {
      Gather(*in.column(c), rows, out->column(c).get());
    }
  }
  if (prof != nullptr) {
    prof->RecordStep(project_step_, nrows, nrows, ProfileNowNs() - t0);
  }
  return out;
}

Result<TablePtr> SpecializedPipeline::Run(const Table& input,
                                          const ExecContext& ctx) {
  if (input.num_columns() != input_arity_) {
    return Status::Internal(
        "specialized pipeline arity mismatch: expected " +
        std::to_string(input_arity_) + " columns, got " +
        std::to_string(input.num_columns()));
  }
  const Table* cur = &input;
  TablePtr mid;
  if (join_) {
    int64_t jt0 = ctx.profile != nullptr ? ProfileNowNs() : 0;
    Join& j = *join_;
    const Bat& bk = *j.build_table->column(j.build_key);
    if (j.build_table->num_rows() != j.built_rows) {
      j.index.Build(bk.int64_data().data(), bk.validity_data(), bk.size());
      j.built_rows = j.build_table->num_rows();
    }
    probe_pos_.clear();
    build_pos_.clear();
    const Bat& pk = *input.column(j.probe_key);
    j.index.Probe(pk.int64_data().data(), pk.validity_data(), pk.size(),
                  &probe_pos_, &build_pos_);
    mid = std::make_shared<Table>("", j.mid_schema);
    for (size_t c = 0; c < input.num_columns(); ++c) {
      mid->column(c)->AppendPositions(*input.column(c), probe_pos_);
    }
    size_t base = input.num_columns();
    for (size_t c = 0; c < j.build_table->num_columns(); ++c) {
      mid->column(base + c)->AppendPositions(*j.build_table->column(c),
                                             build_pos_);
    }
    cur = mid.get();
    if (ctx.profile != nullptr) {
      ctx.profile->RecordStep(join_step_,
                              static_cast<int64_t>(input.num_rows()),
                              static_cast<int64_t>(probe_pos_.size()),
                              ProfileNowNs() - jt0);
    }
  }
  return RunStages(*cur, ctx);
}

PlanRunner::PlanRunner(PlanPtr plan, std::vector<std::string> stream_relations,
                       PlanBindings static_bindings, bool specialize)
    : plan_(std::move(plan)),
      stream_relations_(std::move(stream_relations)),
      static_bindings_(std::move(static_bindings)) {
  if (!specialize) {
    fallback_reason_ = "specialization disabled";
  } else if (stream_relations_.size() != 1) {
    fallback_reason_ = "multiple stream inputs";
  } else {
    SpecializeResult sr =
        SpecializePlan(*plan_, stream_relations_[0], static_bindings_);
    pipeline_ = std::move(sr.pipeline);
    fallback_reason_ = std::move(sr.fallback_reason);
  }
}

Result<TablePtr> PlanRunner::Run(std::span<const TablePtr> inputs,
                                 const ExecContext& ctx) {
  // Specialized fast path: no binding-map copy, no plan-tree walk — the
  // pre-compiled chain runs straight over the slice.
  if (pipeline_ != nullptr) return pipeline_->Run(*inputs[0], ctx);
  PlanBindings bindings = static_bindings_;
  for (size_t i = 0; i < inputs.size(); ++i) {
    bindings[stream_relations_[i]] = inputs[i];
  }
  return ExecutePlan(*plan_, bindings, ctx);
}

std::string PlanRunner::Describe() const {
  if (pipeline_ != nullptr) return pipeline_->Describe();
  return "interpreter (fallback: " + fallback_reason_ + ")";
}

size_t PlanRunner::StateBytes(int64_t string_bytes) const {
  return pipeline_ != nullptr ? pipeline_->StateBytes(string_bytes) : 0;
}

void PlanRunner::RegisterProfileSteps(PipelineProfile* profile) {
  if (pipeline_ != nullptr) {
    pipeline_->RegisterProfileSteps(profile);
  } else {
    PipelineProfile::FromPlan(*plan_, profile);
  }
}

}  // namespace datacell
