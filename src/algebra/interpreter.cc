#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "algebra/kernels.h"
#include "algebra/lowering.h"
#include "algebra/plan.h"
#include "algebra/profile.h"
#include "common/check.h"

namespace datacell {

namespace {

constexpr size_t kNoStream = static_cast<size_t>(-1);
constexpr size_t kNotBuilt = static_cast<size_t>(-1);

/// One plan node's execution state. The tree mirrors the PlanNode tree; a
/// node keeps only what pays across runs (PlanRunner in plan.h).
struct NodeState {
  const PlanNode* plan = nullptr;
  size_t id = 0;  // preorder index: the node's profile step is first + id
  std::vector<NodeState> children;
  // kScan: the static table it reads, or the index of its stream input.
  TablePtr table;
  size_t stream = kNoStream;
  // kFilter: the predicate lowered once, and the candidate list it fills.
  std::optional<LoweredSelect> lowered;
  std::vector<size_t> rows;
  // kProject of column refs only, under an Aggregate: hands its input up
  // unchanged, and `columns` tells the Aggregate where each output lives.
  bool pass_through = false;
  std::vector<size_t> columns;
  // kHashJoin over a static build side on one integer-backed key: the index
  // and the build side's row count it was built at.
  bool indexed = false;
  kernel::Int64HashIndex index;
  size_t indexed_rows = kNotBuilt;
  std::vector<size_t> probe_pos, build_pos;
  // kAggregate: where each input column lives in the table its child hands
  // up, the group keys mapped likewise, and for one integer-backed key the
  // group table.
  std::vector<size_t> source, keys;
  std::optional<kernel::Int64GroupTable> groups;
  std::vector<uint32_t> group_ids;
  std::vector<size_t> reps;
};

}  // namespace

class PlanState {
 public:
  NodeState root;
};

namespace {

/// A node's output: `table`, restricted to the ascending positions `rows`
/// when set (a MonetDB candidate list; the positions live in the producing
/// node's state until its next run).
struct Candidates {
  TablePtr table;
  const std::vector<size_t>* rows = nullptr;

  size_t num_rows() const {
    return rows != nullptr ? rows->size() : table->num_rows();
  }
};

/// The candidate rows as a table of their own.
TablePtr Materialize(const Candidates& c) {
  if (c.rows == nullptr || c.rows->size() == c.table->num_rows()) {
    return c.table;
  }
  return TablePtr(c.table->Take(*c.rows));
}

/// Everything one run reads besides the node states.
struct RunArgs {
  std::span<const TablePtr> streams;
  PipelineProfile* profile = nullptr;
  size_t first_step = PipelineProfile::kNoStep;
};

void Build(const PlanNode& n, const std::vector<std::string>& streams,
           const PlanBindings& statics, bool under_aggregate, size_t* next_id,
           NodeState* s) {
  s->plan = &n;
  s->id = (*next_id)++;
  s->children.resize(n.children().size());
  for (size_t i = 0; i < n.children().size(); ++i) {
    Build(*n.child(i), streams, statics, n.kind() == PlanKind::kAggregate,
          next_id, &s->children[i]);
  }
  switch (n.kind()) {
    case PlanKind::kScan: {
      auto it = std::find(streams.begin(), streams.end(), n.scan_relation());
      if (it != streams.end()) {
        s->stream = static_cast<size_t>(it - streams.begin());
      } else if (auto t = statics.find(n.scan_relation()); t != statics.end()) {
        s->table = t->second;
      }
      break;
    }
    case PlanKind::kFilter:
      s->lowered = TryLowerSelect(*n.predicate(), n.child()->output_schema());
      break;
    case PlanKind::kProject:
      // A column-ref projection feeding an Aggregate only renames: the
      // Aggregate reads its input columns in place. Anywhere else the
      // output may become the result, which must not alias an input.
      s->pass_through = under_aggregate;
      for (const ExprPtr& e : n.projections()) {
        if (e->kind() != ExprKind::kColumnRef) {
          s->pass_through = false;
          break;
        }
        s->columns.push_back(e->column_index());
      }
      break;
    case PlanKind::kHashJoin: {
      const Schema& left = n.child(0)->output_schema();
      const Schema& right = n.child(1)->output_schema();
      s->indexed = s->children[1].table != nullptr &&
                   IsIntegerBacked(left.field(n.left_key()).type) &&
                   IsIntegerBacked(right.field(n.right_key()).type);
      break;
    }
    case PlanKind::kAggregate: {
      const NodeState& child = s->children[0];
      for (size_t c = 0; c < n.child()->output_schema().num_fields(); ++c) {
        s->source.push_back(child.pass_through ? child.columns[c] : c);
      }
      for (size_t gc : n.group_columns()) s->keys.push_back(s->source[gc]);
      if (n.group_columns().size() == 1 &&
          IsIntegerBacked(
              n.child()->output_schema().field(n.group_columns()[0]).type)) {
        s->groups.emplace();
      }
      break;
    }
    default:
      break;
  }
}

/// The node's line in \explain and its profile step label. The label's
/// first word names the step in the end-to-end benchmark's ledger.
std::string Label(const NodeState& s) {
  const PlanNode& n = *s.plan;
  switch (n.kind()) {
    case PlanKind::kScan:
      return n.Describe() + (s.stream != kNoStream ? " [stream]" : " [static]");
    case PlanKind::kFilter:
      if (!s.lowered) return n.Describe();
      return n.Describe() + (s.lowered->is_string ? " [kernel string select]"
                                                  : " [kernel range select]");
    case PlanKind::kProject:
      return n.Describe() + (s.pass_through ? " [pass-through]" : "");
    case PlanKind::kHashJoin: {
      const std::string d = n.Describe();  // "HashJoin(left.a = right.b)"
      if (!s.indexed) return d;
      return "hash-join probe" + d.substr(d.find('(')) +
             " [index kept, rebuilt when the build side grows]";
    }
    case PlanKind::kAggregate:
      return n.Describe() + (s.groups ? " [int64 group table kept]" : "");
    default:
      return n.Describe();
  }
}

void CollectLabels(const NodeState& s, int depth,
                   std::vector<std::pair<std::string, int>>* out) {
  out->emplace_back(Label(s), depth);
  for (const NodeState& c : s.children) CollectLabels(c, depth + 1, out);
}

size_t StateBytesOf(const NodeState& s, int64_t string_bytes) {
  size_t bytes = s.groups ? s.groups->memory_bytes() : 0;
  if (s.indexed) {
    const Table& build = *s.children[1].table;
    bytes += build.num_rows() *
                 static_cast<size_t>(
                     build.schema().EstimatedRowBytes(string_bytes)) +
             s.index.memory_bytes();
  }
  for (const NodeState& c : s.children) bytes += StateBytesOf(c, string_bytes);
  return bytes;
}

Result<Candidates> ExecScan(const NodeState& s, const RunArgs& a) {
  const PlanNode& n = *s.plan;
  const TablePtr& t = s.stream != kNoStream ? a.streams[s.stream] : s.table;
  if (t == nullptr) {
    return Status::NotFound("no binding for relation '" + n.scan_relation() +
                            "'");
  }
  if (t->num_columns() != n.output_schema().num_fields()) {
    return Status::Internal("bound relation '" + n.scan_relation() +
                            "' arity differs from plan schema");
  }
  return Candidates{t};
}

Result<Candidates> ExecFilter(NodeState& s, const Candidates& in) {
  // Over a stacked filter's candidates, select among the selected rows.
  TablePtr t = Materialize(in);
  DC_RETURN_NOT_OK(SelectPositions(*s.plan->predicate(),
                                   s.lowered ? &*s.lowered : nullptr, *t,
                                   &s.rows));
  return Candidates{std::move(t), &s.rows};
}

Result<Candidates> ExecProject(const NodeState& s, const Candidates& in) {
  const PlanNode& n = *s.plan;
  if (s.pass_through) return in;
  auto out = std::make_shared<Table>("", n.output_schema());
  TablePtr selected;  // the candidate rows, taken once for computed columns
  for (size_t i = 0; i < n.projections().size(); ++i) {
    const Expr& e = *n.projections()[i];
    if (e.kind() == ExprKind::kColumnRef) {
      const Bat& src = *in.table->column(e.column_index());
      if (in.rows != nullptr) {
        out->column(i)->AppendPositions(src, *in.rows);
      } else {
        out->column(i)->AppendBat(src);
      }
      continue;
    }
    if (selected == nullptr) selected = Materialize(in);
    DC_ASSIGN_OR_RETURN(BatPtr col, EvaluateExpr(e, *selected));
    out->column(i)->AppendBat(*col);
  }
  return Candidates{std::move(out)};
}

Result<Candidates> ExecHashJoin(NodeState& s, const Candidates& l,
                                const Candidates& r) {
  const PlanNode& n = *s.plan;
  TablePtr left = Materialize(l);
  TablePtr right = Materialize(r);
  const Bat& lk = *left->column(n.left_key());
  const Bat& rk = *right->column(n.right_key());
  const std::vector<size_t>* lpos = &s.probe_pos;
  const std::vector<size_t>* rpos = &s.build_pos;
  JoinResult jr;
  if (s.indexed) {
    if (right->num_rows() != s.indexed_rows) {
      s.index.Build(rk.int64_data().data(), rk.validity_data(), rk.size());
      s.indexed_rows = right->num_rows();
    }
    s.probe_pos.clear();
    s.build_pos.clear();
    s.index.Probe(lk.int64_data().data(), lk.validity_data(), lk.size(),
                  &s.probe_pos, &s.build_pos);
  } else {
    DC_ASSIGN_OR_RETURN(jr, HashJoin(lk, rk));
    lpos = &jr.left_positions;
    rpos = &jr.right_positions;
  }
  auto out = std::make_shared<Table>("", n.output_schema());
  const size_t lcols = left->num_columns();
  for (size_t c = 0; c < lcols; ++c) {
    out->column(c)->AppendPositions(*left->column(c), *lpos);
  }
  for (size_t c = 0; c < right->num_columns(); ++c) {
    out->column(lcols + c)->AppendPositions(*right->column(c), *rpos);
  }
  return Candidates{std::move(out)};
}

Result<Candidates> ExecAggregate(NodeState& s, const Candidates& in) {
  const PlanNode& n = *s.plan;
  auto out = std::make_shared<Table>("", n.output_schema());
  if (n.group_columns().empty()) {
    // Scalar aggregate: exactly one output row, even for empty input.
    Row row;
    for (const AggSpec& a : n.aggregates()) {
      AggPartial p;
      if (a.count_star) {
        p.count = static_cast<int64_t>(in.num_rows());
      } else {
        DC_ASSIGN_OR_RETURN(
            p, AggregateAll(*in.table->column(s.source[a.input_column]),
                            in.rows));
      }
      row.push_back(p.Finalize(a.func));
    }
    DC_RETURN_NOT_OK(out->AppendRow(row));
    return Candidates{std::move(out)};
  }
  // Group ids for the aggregated rows: through the candidate list on the
  // kept int64 table, or by GroupBy over the selected rows.
  TablePtr src = in.table;
  const std::vector<size_t>* rows = in.rows;
  size_t num_groups;
  if (s.groups) {
    const Bat& key = *src->column(s.keys[0]);
    s.group_ids.resize(in.num_rows());
    s.reps.clear();
    num_groups = s.groups->Group(
        key.int64_data().data(), key.validity_data(),
        rows != nullptr ? rows->data() : nullptr, in.num_rows(),
        s.group_ids.data(), &s.reps);
  } else {
    src = Materialize(in);
    rows = nullptr;
    DC_ASSIGN_OR_RETURN(Grouping g, GroupBy(*src, s.keys));
    s.group_ids = std::move(g.group_ids);
    s.reps = std::move(g.representatives);
    num_groups = g.num_groups;
  }
  // Group key columns: one value per group, from the representative row.
  size_t col = 0;
  for (size_t key : s.keys) {
    out->column(col++)->AppendPositions(*src->column(key), s.reps);
  }
  const size_t num_rows = s.group_ids.size();
  for (const AggSpec& a : n.aggregates()) {
    Bat* dst = out->column(col++).get();
    if (a.count_star) {
      int64_t* counts = dst->AppendUninitializedInt64(num_groups);
      std::fill(counts, counts + num_groups, 0);
      for (uint32_t g : s.group_ids) ++counts[g];
    } else {
      DC_RETURN_NOT_OK(AggregateByGroup(
          *src->column(s.source[a.input_column]), a.func, s.group_ids.data(),
          rows != nullptr ? rows->data() : nullptr, num_rows, num_groups,
          dst));
    }
  }
  return Candidates{std::move(out)};
}

Result<Candidates> ExecSort(const NodeState& s, const Candidates& c) {
  TablePtr in = Materialize(c);
  DC_ASSIGN_OR_RETURN(std::vector<size_t> perm,
                      SortPositions(*in, s.plan->sort_keys()));
  return Candidates{TablePtr(in->Take(perm))};
}

Result<Candidates> ExecDistinct(const Candidates& c) {
  TablePtr in = Materialize(c);
  std::vector<size_t> positions = DistinctPositions(*in);
  if (positions.size() == in->num_rows()) return Candidates{std::move(in)};
  return Candidates{TablePtr(in->Take(positions))};
}

Result<Candidates> ExecLimit(const NodeState& s, const Candidates& c) {
  TablePtr in = Materialize(c);
  size_t offset = std::min(s.plan->offset(), in->num_rows());
  size_t length = std::min(s.plan->limit(), in->num_rows() - offset);
  if (offset == 0 && length == in->num_rows()) return Candidates{std::move(in)};
  return Candidates{TablePtr(in->Slice(offset, length))};
}

Result<Candidates> ExecUnion(const NodeState& s, const Candidates& l,
                             const Candidates& r) {
  auto out = std::make_shared<Table>("", s.plan->output_schema());
  DC_RETURN_NOT_OK(out->AppendTable(*Materialize(l)));
  DC_RETURN_NOT_OK(out->AppendTable(*Materialize(r)));
  return Candidates{std::move(out)};
}

Result<Candidates> ExecNode(NodeState& s, const Candidates* in,
                            const RunArgs& a) {
  switch (s.plan->kind()) {
    case PlanKind::kScan:
      return ExecScan(s, a);
    case PlanKind::kFilter:
      return ExecFilter(s, in[0]);
    case PlanKind::kProject:
      return ExecProject(s, in[0]);
    case PlanKind::kHashJoin:
      return ExecHashJoin(s, in[0], in[1]);
    case PlanKind::kAggregate:
      return ExecAggregate(s, in[0]);
    case PlanKind::kSort:
      return ExecSort(s, in[0]);
    case PlanKind::kDistinct:
      return ExecDistinct(in[0]);
    case PlanKind::kLimit:
      return ExecLimit(s, in[0]);
    case PlanKind::kUnion:
      return ExecUnion(s, in[0], in[1]);
  }
  return Status::Internal("bad plan kind");
}

/// Runs the children, then the node itself. With a profile, the node's own
/// rows and time (its children's excluded) accumulate into its step, so the
/// steps of a plan add up to its run.
Result<Candidates> Exec(NodeState& s, const RunArgs& a) {
  Candidates in[2];
  for (size_t i = 0; i < s.children.size(); ++i) {
    DC_ASSIGN_OR_RETURN(in[i], Exec(s.children[i], a));
  }
  if (a.profile == nullptr) return ExecNode(s, in, a);
  const int64_t t0 = ProfileNowNs();
  Result<Candidates> r = ExecNode(s, in, a);
  if (r.ok()) {
    const auto rows_out = static_cast<int64_t>(r->num_rows());
    int64_t rows_in = s.children.empty() ? rows_out : 0;
    for (size_t i = 0; i < s.children.size(); ++i) {
      rows_in += static_cast<int64_t>(in[i].num_rows());
    }
    a.profile->RecordStep(a.first_step + s.id, rows_in, rows_out,
                          ProfileNowNs() - t0);
  }
  return r;
}

std::unique_ptr<PlanState> MakeState(const PlanNode& plan,
                                     const std::vector<std::string>& streams,
                                     const PlanBindings& statics) {
  auto state = std::make_unique<PlanState>();
  size_t next_id = 0;
  Build(plan, streams, statics, false, &next_id, &state->root);
  return state;
}

/// Runs the root; its output becomes the result table. A Project at the
/// root copies its columns (Build passes input through only under an
/// Aggregate), so a result aliases an input only as a whole table.
Result<TablePtr> RunState(PlanState& state, const RunArgs& a) {
  DC_ASSIGN_OR_RETURN(Candidates out, Exec(state.root, a));
  return Materialize(out);
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

Result<TablePtr> ExecutePlan(const PlanNode& plan,
                             const PlanBindings& bindings) {
  std::unique_ptr<PlanState> state = MakeState(plan, {}, bindings);
  return RunState(*state, RunArgs{});
}

PlanRunner::PlanRunner(PlanPtr plan, std::vector<std::string> stream_relations,
                       PlanBindings static_bindings, bool fresh_state)
    : plan_(std::move(plan)),
      stream_relations_(std::move(stream_relations)),
      static_bindings_(std::move(static_bindings)),
      fresh_state_(fresh_state),
      state_(MakeState(*plan_, stream_relations_, static_bindings_)),
      first_step_(PipelineProfile::kNoStep) {
  CollectLabels(state_->root, 0, &labels_);
}

PlanRunner::~PlanRunner() = default;

Result<TablePtr> PlanRunner::Run(std::span<const TablePtr> inputs,
                                 const ExecContext& ctx) {
  if (fresh_state_) {
    state_ = MakeState(*plan_, stream_relations_, static_bindings_);
  }
  RunArgs a{inputs, nullptr, first_step_};
  if (first_step_ != PipelineProfile::kNoStep) a.profile = ctx.profile;
  return RunState(*state_, a);
}

std::string PlanRunner::Describe() const {
  std::string out = fresh_state_ ? "plan, fresh state per firing:\n"
                                 : "plan, state kept across firings:\n";
  for (const auto& [label, depth] : labels_) {
    out += std::string(static_cast<size_t>(depth + 1) * 2, ' ') + label + "\n";
  }
  return out;
}

size_t PlanRunner::StateBytes(int64_t string_bytes) const {
  return StateBytesOf(state_->root, string_bytes);
}

void PlanRunner::RegisterProfileSteps(PipelineProfile* profile) {
  for (const auto& [label, depth] : labels_) {
    size_t step = profile->AddStep(label, depth);
    if (first_step_ == PipelineProfile::kNoStep) first_step_ = step;
  }
}

std::string ExplainMal(const PlanNode& plan) {
  std::string out;
  int next_var = 0;
  ExplainRec(plan, &next_var, &out);
  return out;
}

}  // namespace datacell
