#include "algebra/specialize.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "algebra/expression.h"
#include "algebra/operators.h"
#include "common/check.h"

namespace datacell {

namespace {

// Lowered ranges keep absent bounds as nullopt; the kernels take concrete
// sentinels. Substitutions match the operators.cc wrappers exactly so both
// paths select the same positions.
int64_t ILo(const LoweredSelect& s) {
  return s.ilo.value_or(std::numeric_limits<int64_t>::min());
}
int64_t IHi(const LoweredSelect& s) {
  return s.ihi.value_or(std::numeric_limits<int64_t>::max());
}
double DLo(const LoweredSelect& s) {
  return s.dlo.value_or(-std::numeric_limits<double>::infinity());
}
double DHi(const LoweredSelect& s) {
  return s.dhi.value_or(std::numeric_limits<double>::infinity());
}

bool NumericColumn(DataType t) {
  return IsIntegerBacked(t) || t == DataType::kDouble;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

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
  using Pred = SpecializedPipeline::Pred;
  using Proj = SpecializedPipeline::Proj;
  using Agg = SpecializedPipeline::Agg;

  // Constant predicates fold at compile time; kNone means `out` holds a
  // real compiled predicate.
  enum class Fold { kNone, kTrue, kFalse };

  static SpecializeResult Fail(std::string reason) {
    SpecializeResult r;
    r.fallback_reason = std::move(reason);
    return r;
  }

  bool CompilePred(const Expr& e, const Schema& s, Pred* out, Fold* fold);
  bool CompileProj(const Expr& e, DataType out_type, Proj* out);

  const std::string& stream_;
  const PlanBindings& statics_;
};

bool PipelineBuilder::CompilePred(const Expr& e, const Schema& s, Pred* out,
                                  Fold* fold) {
  *fold = Fold::kNone;
  // Constant folding first: the same folding the analyzer warns about
  // (P023), so a warned predicate and a specialized one always agree.
  if (auto k = TryFoldConstantPredicate(e)) {
    *fold = *k ? Fold::kTrue : Fold::kFalse;
    return true;
  }
  if (auto lowered = TryLowerSelect(e, s)) {
    out->kind = Pred::Kind::kLowered;
    out->lowered = std::move(*lowered);
    return true;
  }
  if (e.kind() == ExprKind::kBinary) {
    BinaryOp op = e.binary_op();
    if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
      Pred l, r;
      Fold fl, fr;
      if (!CompilePred(*e.left(), s, &l, &fl) ||
          !CompilePred(*e.right(), s, &r, &fr)) {
        return false;
      }
      // Under the evaluator's null-as-false semantics, a constant operand
      // folds exactly like two-valued logic: false AND x == false even when
      // x is null, true OR x == true likewise.
      if (op == BinaryOp::kAnd) {
        if (fl == Fold::kFalse || fr == Fold::kFalse) {
          *fold = Fold::kFalse;
          return true;
        }
        if (fl == Fold::kTrue && fr == Fold::kTrue) {
          *fold = Fold::kTrue;
          return true;
        }
        if (fl == Fold::kTrue) {
          *out = std::move(r);
          return true;
        }
        if (fr == Fold::kTrue) {
          *out = std::move(l);
          return true;
        }
        // Same-column numeric ranges conjoin into one kernel pass.
        if (l.kind == Pred::Kind::kLowered && r.kind == Pred::Kind::kLowered &&
            !l.lowered.is_string && !r.lowered.is_string &&
            l.lowered.column == r.lowered.column) {
          IntersectBounds(&l.lowered, r.lowered);
          *out = std::move(l);
          return true;
        }
      } else {
        if (fl == Fold::kTrue || fr == Fold::kTrue) {
          *fold = Fold::kTrue;
          return true;
        }
        if (fl == Fold::kFalse && fr == Fold::kFalse) {
          *fold = Fold::kFalse;
          return true;
        }
        if (fl == Fold::kFalse) {
          *out = std::move(r);
          return true;
        }
        if (fr == Fold::kFalse) {
          *out = std::move(l);
          return true;
        }
      }
      out->kind = op == BinaryOp::kAnd ? Pred::Kind::kAnd : Pred::Kind::kOr;
      out->children.push_back(std::move(l));
      out->children.push_back(std::move(r));
      return true;
    }
    if (op == BinaryOp::kNe) {
      // <> lowers through the equality kernel: complement of the eq
      // positions, minus nulls (null <> v is false, but a null position is
      // absent from the eq list and would otherwise survive complementing).
      const Expr* col = nullptr;
      Value lit;
      if (e.left()->kind() == ExprKind::kColumnRef &&
          MatchLiteral(*e.right(), &lit)) {
        col = e.left().get();
      } else if (e.right()->kind() == ExprKind::kColumnRef &&
                 MatchLiteral(*e.left(), &lit)) {
        col = e.right().get();
      }
      if (col == nullptr || lit.is_null()) return false;
      if (col->column_index() >= s.num_fields()) return false;
      LoweredSelect eq;
      if (!LowerComparison(s, col->column_index(), BinaryOp::kEq, lit, &eq)) {
        return false;
      }
      out->kind = Pred::Kind::kNotEqual;
      out->lowered = std::move(eq);
      return true;
    }
    if (op == BinaryOp::kLike) {
      if (e.left()->kind() != ExprKind::kColumnRef ||
          e.left()->type() != DataType::kString ||
          e.right()->kind() != ExprKind::kLiteral ||
          !e.right()->literal().is_string() ||
          e.left()->column_index() >= s.num_fields()) {
        return false;
      }
      out->kind = Pred::Kind::kLike;
      out->column = e.left()->column_index();
      out->pattern = e.right()->literal().string_value();
      return true;
    }
    return false;
  }
  if (e.kind() == ExprKind::kUnary) {
    UnaryOp op = e.unary_op();
    if (op == UnaryOp::kNot) {
      Pred c;
      Fold fc;
      if (!CompilePred(*e.operand(), s, &c, &fc)) return false;
      if (fc == Fold::kTrue) {
        *fold = Fold::kFalse;
        return true;
      }
      if (fc == Fold::kFalse) {
        *fold = Fold::kTrue;
        return true;
      }
      out->kind = Pred::Kind::kNot;
      out->children.push_back(std::move(c));
      return true;
    }
    if (op == UnaryOp::kIsNull || op == UnaryOp::kIsNotNull) {
      if (e.operand()->kind() != ExprKind::kColumnRef ||
          e.operand()->column_index() >= s.num_fields()) {
        return false;
      }
      out->kind = op == UnaryOp::kIsNull ? Pred::Kind::kIsNull
                                         : Pred::Kind::kIsNotNull;
      out->column = e.operand()->column_index();
      return true;
    }
    return false;
  }
  if (e.kind() == ExprKind::kColumnRef && e.type() == DataType::kBool) {
    if (e.column_index() >= s.num_fields()) return false;
    out->kind = Pred::Kind::kBoolColumn;
    out->column = e.column_index();
    return true;
  }
  return false;
}

bool PipelineBuilder::CompileProj(const Expr& e, DataType out_type,
                                  Proj* out) {
  if (e.kind() == ExprKind::kColumnRef) {
    out->kind = Proj::Kind::kColumn;
    out->column = e.column_index();
    return true;
  }
  if (e.kind() != ExprKind::kBinary) return false;
  BinaryOp op = e.binary_op();
  if (op != BinaryOp::kAdd && op != BinaryOp::kSub && op != BinaryOp::kMul &&
      op != BinaryOp::kDiv && op != BinaryOp::kMod) {
    return false;
  }
  const Expr* col = nullptr;
  Value v;
  bool literal_on_left = false;
  if (e.left()->kind() == ExprKind::kColumnRef && MatchLiteral(*e.right(), &v)) {
    col = e.left().get();
  } else if (e.right()->kind() == ExprKind::kColumnRef &&
             MatchLiteral(*e.left(), &v)) {
    col = e.right().get();
    literal_on_left = true;
  } else {
    return false;
  }
  // A null literal poisons every row to null; leave that to the
  // interpreter rather than special-casing a degenerate projection.
  if (!(v.is_int64() || v.is_double() || v.is_timestamp())) return false;
  if (!NumericColumn(col->type())) return false;
  if (out_type != DataType::kInt64 && out_type != DataType::kDouble) {
    return false;
  }
  // The integer path reads Int64At on both operands.
  if (out_type == DataType::kInt64 && v.is_double()) return false;
  out->kind = Proj::Kind::kArith;
  out->column = col->column_index();
  out->op = op;
  out->literal_on_left = literal_on_left;
  out->literal = v;
  out->out_type = out_type;
  return true;
}

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

  // Compile the filter stack bottom-up into one predicate tree. Each filter
  // only drops rows, so a row survives the stack iff it satisfies every
  // predicate — the conjunction evaluated on the source schema (all stacked
  // filters share it) selects the same rows the sequential filters would.
  std::optional<Pred> combined;
  std::vector<std::string> filter_desc;
  bool always_false = false;
  for (auto fit = filters.rbegin(); fit != filters.rend(); ++fit) {
    const Expr& pe = *(*fit)->predicate();
    Pred p;
    Fold fold = Fold::kNone;
    if (!CompilePred(pe, source, &p, &fold)) {
      return Fail("predicate not specializable: " + pe.ToString());
    }
    if (fold == Fold::kTrue) {
      filter_desc.push_back(pe.ToString() + "  [constant true: eliminated]");
      continue;
    }
    if (fold == Fold::kFalse) {
      always_false = true;
      filter_desc.push_back(pe.ToString() +
                            "  [constant false: selects nothing]");
      continue;
    }
    filter_desc.push_back(pe.ToString());
    if (!combined) {
      combined.emplace(std::move(p));
    } else if (combined->kind == Pred::Kind::kLowered &&
               p.kind == Pred::Kind::kLowered && !combined->lowered.is_string &&
               !p.lowered.is_string &&
               combined->lowered.column == p.lowered.column) {
      IntersectBounds(&combined->lowered, p.lowered);
    } else {
      Pred andp;
      andp.kind = Pred::Kind::kAnd;
      andp.children.push_back(std::move(*combined));
      andp.children.push_back(std::move(p));
      combined.emplace(std::move(andp));
    }
  }
  if (always_false) {
    pipe->always_false_ = true;
  } else {
    pipe->filter_ = std::move(combined);
  }

  if (projectnode != nullptr) {
    std::vector<Proj> projs;
    const Schema& os = projectnode->output_schema();
    for (size_t i = 0; i < projectnode->projections().size(); ++i) {
      const Expr& e = *projectnode->projections()[i];
      Proj pr;
      if (!CompileProj(e, os.field(i).type, &pr)) {
        return Fail("projection not specializable: " + e.ToString());
      }
      projs.push_back(std::move(pr));
    }
    pipe->project_.emplace(std::move(projs));
  }

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
  for (const std::string& fd : filter_desc) {
    d += "  " + std::to_string(step++) + ". filter: " + fd + "\n";
  }
  if (pipe->filter_ && pipe->filter_->kind == Pred::Kind::kLowered &&
      !pipe->filter_->lowered.is_string) {
    d += "       [kernel range select]\n";
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
  if (filter_ || always_false_) filter_step_ = profile->AddStep("filter", 0);
  if (project_) project_step_ = profile->AddStep("project", 0);
  if (aggregates_) agg_step_ = profile->AddStep("aggregate", 0);
  if (!post_projects_.empty()) {
    post_step_ = profile->AddStep("post-project", 0);
  }
  if (!project_ && !aggregates_) {
    project_step_ = profile->AddStep("materialize", 0);
  }
}

void SpecializedPipeline::EvalPred(const Pred& p, const Table& in,
                                   std::vector<size_t>* out) const {
  size_t n = in.num_rows();
  out->clear();
  switch (p.kind) {
    case Pred::Kind::kLowered: {
      const LoweredSelect& l = p.lowered;
      if (l.empty) return;
      const Bat& col = *in.column(l.column);
      // Null-free numeric selects skip the generic wrapper's allocation and
      // dispatch.
      if (!l.is_string && !col.has_nulls()) {
        out->resize(n);
        size_t k;
        if (col.type() == DataType::kDouble) {
          k = kernel::SelectRangeDouble(col.double_data().data(), DLo(l),
                                        DHi(l), 0, n, out->data());
        } else {
          k = kernel::SelectRangeInt64(col.int64_data().data(), ILo(l),
                                       IHi(l), 0, n, out->data());
        }
        out->resize(k);
        return;
      }
      *out = RunLoweredSelect(l, in);
      return;
    }
    case Pred::Kind::kNotEqual: {
      std::vector<size_t> eq = RunLoweredSelect(p.lowered, in);
      std::vector<size_t> comp = ComplementPositions(eq, n);
      const Bat& col = *in.column(p.lowered.column);
      if (!col.has_nulls()) {
        *out = std::move(comp);
        return;
      }
      // null <> v is false, but nulls are absent from the eq positions and
      // would otherwise survive the complement.
      out->reserve(comp.size());
      for (size_t pos : comp) {
        if (!col.IsNull(pos)) out->push_back(pos);
      }
      return;
    }
    case Pred::Kind::kBoolColumn: {
      const Bat& col = *in.column(p.column);
      for (size_t i = 0; i < n; ++i) {
        if (!col.IsNull(i) && col.BoolAt(i)) out->push_back(i);
      }
      return;
    }
    case Pred::Kind::kIsNull: {
      const Bat& col = *in.column(p.column);
      if (!col.has_nulls()) return;
      for (size_t i = 0; i < n; ++i) {
        if (col.IsNull(i)) out->push_back(i);
      }
      return;
    }
    case Pred::Kind::kIsNotNull: {
      const Bat& col = *in.column(p.column);
      if (!col.has_nulls()) {
        out->resize(n);
        std::iota(out->begin(), out->end(), size_t{0});
        return;
      }
      for (size_t i = 0; i < n; ++i) {
        if (!col.IsNull(i)) out->push_back(i);
      }
      return;
    }
    case Pred::Kind::kLike: {
      const Bat& col = *in.column(p.column);
      for (size_t i = 0; i < n; ++i) {
        if (!col.IsNull(i) && LikeMatch(col.StringAt(i), p.pattern)) {
          out->push_back(i);
        }
      }
      return;
    }
    case Pred::Kind::kNot: {
      // NOT over null-as-false evaluates true at nulls, so the plain
      // complement (which keeps null positions) is exactly right.
      std::vector<size_t> c;
      EvalPred(p.children[0], in, &c);
      *out = ComplementPositions(c, n);
      return;
    }
    case Pred::Kind::kAnd:
    case Pred::Kind::kOr: {
      std::vector<size_t> a, b;
      EvalPred(p.children[0], in, &a);
      EvalPred(p.children[1], in, &b);
      *out = p.kind == Pred::Kind::kAnd ? IntersectPositions(a, b)
                                        : UnionPositions(a, b);
      return;
    }
  }
}

Status SpecializedPipeline::RunProjection(const Proj& p, const Table& in,
                                          const std::vector<size_t>* positions,
                                          Bat* out) const {
  const Bat& col = *in.column(p.column);
  if (p.kind == Proj::Kind::kColumn) {
    if (positions != nullptr) {
      out->AppendPositions(col, *positions);
    } else {
      out->AppendBat(col);
    }
    return Status::OK();
  }
  // Column-op-literal arithmetic, replicating EvalArithmetic row for row
  // (including null propagation and div/mod-by-zero -> null).
  size_t n = positions != nullptr ? positions->size() : in.num_rows();
  auto pos_at = [&](size_t i) {
    return positions != nullptr ? (*positions)[i] : i;
  };
  if (p.out_type == DataType::kInt64) {
    int64_t lv = p.literal.is_double()
                     ? 0  // unreachable: compile rejects double literals here
                     : p.literal.int64_value();
    for (size_t i = 0; i < n; ++i) {
      size_t pos = pos_at(i);
      if (col.IsNull(pos)) {
        out->AppendNull();
        continue;
      }
      int64_t cv = col.Int64At(pos);
      int64_t a = p.literal_on_left ? lv : cv;
      int64_t b = p.literal_on_left ? cv : lv;
      switch (p.op) {
        case BinaryOp::kAdd:
          out->AppendInt64(a + b);
          break;
        case BinaryOp::kSub:
          out->AppendInt64(a - b);
          break;
        case BinaryOp::kMul:
          out->AppendInt64(a * b);
          break;
        case BinaryOp::kDiv:
          if (b == 0) {
            out->AppendNull();
          } else {
            out->AppendInt64(a / b);
          }
          break;
        case BinaryOp::kMod:
          if (b == 0) {
            out->AppendNull();
          } else {
            out->AppendInt64(a % b);
          }
          break;
        default:
          return Status::Internal("bad specialized arithmetic op");
      }
    }
    return Status::OK();
  }
  // Double path: operands convert through double exactly like NumericAt.
  double lv = p.literal.is_double() ? p.literal.double_value()
                                    : static_cast<double>(
                                          p.literal.int64_value());
  bool col_is_double = col.type() == DataType::kDouble;
  for (size_t i = 0; i < n; ++i) {
    size_t pos = pos_at(i);
    if (col.IsNull(pos)) {
      out->AppendNull();
      continue;
    }
    double cv = col_is_double ? col.DoubleAt(pos)
                              : static_cast<double>(col.Int64At(pos));
    double a = p.literal_on_left ? lv : cv;
    double b = p.literal_on_left ? cv : lv;
    switch (p.op) {
      case BinaryOp::kAdd:
        out->AppendDouble(a + b);
        break;
      case BinaryOp::kSub:
        out->AppendDouble(a - b);
        break;
      case BinaryOp::kMul:
        out->AppendDouble(a * b);
        break;
      case BinaryOp::kDiv:
        if (b == 0.0) {
          out->AppendNull();
        } else {
          out->AppendDouble(a / b);
        }
        break;
      case BinaryOp::kMod:
        if (b == 0.0) {
          out->AppendNull();
        } else {
          out->AppendDouble(std::fmod(a, b));
        }
        break;
      default:
        return Status::Internal("bad specialized arithmetic op");
    }
  }
  return Status::OK();
}

Result<TablePtr> SpecializedPipeline::RunAggregate(const Table& in,
                                                   const ExecContext& ctx) {
  size_t n = in.num_rows();
  PipelineProfile* prof = ctx.profile;
  int64_t t_start = prof != nullptr ? ProfileNowNs() : 0;
  int64_t filter_ns = 0;
  // The aggregates read every row, or the filter's positions (none when
  // the filter folded to false).
  const std::vector<size_t>* positions = nullptr;
  if (filter_ || always_false_) {
    sel_.clear();
    if (filter_) EvalPred(*filter_, in, &sel_);
    positions = &sel_;
    if (prof != nullptr) {
      filter_ns = ProfileNowNs() - t_start;
      prof->RecordStep(filter_step_, static_cast<int64_t>(n),
                       static_cast<int64_t>(sel_.size()), filter_ns);
    }
  }
  size_t agg_in = positions != nullptr ? positions->size() : n;
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
                     ProfileNowNs() - t_start - filter_ns);
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
  size_t n = in.num_rows();
  PipelineProfile* prof = ctx.profile;
  // The filter's selection vector, when there is one, drives the row order;
  // a constant-false filter leaves nothing to group.
  const std::vector<size_t>* rows = nullptr;
  if (always_false_ || filter_) {
    int64_t ft0 = prof != nullptr ? ProfileNowNs() : 0;
    sel_.clear();
    if (filter_) EvalPred(*filter_, in, &sel_);
    rows = &sel_;
    if (prof != nullptr) {
      prof->RecordStep(filter_step_, static_cast<int64_t>(n),
                       static_cast<int64_t>(sel_.size()), ProfileNowNs() - ft0);
    }
  }
  size_t nrows = rows != nullptr ? rows->size() : n;
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
  size_t n = in.num_rows();
  PipelineProfile* prof = ctx.profile;
  auto out = std::make_shared<Table>("", output_schema_);
  if (always_false_) {
    if (prof != nullptr) {
      prof->RecordStep(filter_step_, static_cast<int64_t>(n), 0, 0);
    }
    return out;
  }
  if (!filter_) {
    int64_t t0 = prof != nullptr ? ProfileNowNs() : 0;
    if (project_) {
      for (size_t i = 0; i < project_->size(); ++i) {
        DC_RETURN_NOT_OK(
            RunProjection((*project_)[i], in, nullptr, out->column(i).get()));
      }
    } else {
      for (size_t c = 0; c < in.num_columns(); ++c) {
        out->column(c)->AppendBat(*in.column(c));
      }
    }
    if (prof != nullptr) {
      prof->RecordStep(project_step_, static_cast<int64_t>(n),
                       static_cast<int64_t>(n), ProfileNowNs() - t0);
    }
    return out;
  }
  const Pred& f = *filter_;
  if (f.kind == Pred::Kind::kLowered && f.lowered.empty) {
    if (prof != nullptr) {
      prof->RecordStep(filter_step_, static_cast<int64_t>(n), 0, 0);
    }
    return out;
  }
  int64_t ft0 = prof != nullptr ? ProfileNowNs() : 0;
  EvalPred(f, in, &sel_);
  if (prof != nullptr) {
    prof->RecordStep(filter_step_, static_cast<int64_t>(n),
                     static_cast<int64_t>(sel_.size()), ProfileNowNs() - ft0);
  }
  int64_t pt0 = prof != nullptr ? ProfileNowNs() : 0;
  if (project_) {
    for (size_t i = 0; i < project_->size(); ++i) {
      DC_RETURN_NOT_OK(
          RunProjection((*project_)[i], in, &sel_, out->column(i).get()));
    }
  } else {
    for (size_t c = 0; c < in.num_columns(); ++c) {
      out->column(c)->AppendPositions(*in.column(c), sel_);
    }
  }
  if (prof != nullptr) {
    prof->RecordStep(project_step_, static_cast<int64_t>(sel_.size()),
                     static_cast<int64_t>(sel_.size()), ProfileNowNs() - pt0);
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
