#include "analysis/state_analyzer.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "algebra/aggregate_split.h"
#include "algebra/kernels.h"
#include "common/string_util.h"

namespace datacell {
namespace analysis {

namespace {

/// Hash-table bookkeeping bytes per tracked row (slot + position arrays of
/// the build index, or the per-key entry of a group/distinct table). One
/// shared constant keeps static bounds and the runtime accounting hooks
/// comparable.
constexpr int64_t kPerEntryOverhead = 16;

SourceLoc FindExprLoc(const Expr& e) {
  if (e.loc().valid()) return e.loc();
  switch (e.kind()) {
    case ExprKind::kBinary: {
      SourceLoc l = FindExprLoc(*e.left());
      if (l.valid()) return l;
      return FindExprLoc(*e.right());
    }
    case ExprKind::kUnary:
    case ExprKind::kFunction:
      return FindExprLoc(*e.operand());
    case ExprKind::kCase: {
      for (size_t i = 0; i < e.num_when_branches(); ++i) {
        SourceLoc l = FindExprLoc(*e.when_cond(i));
        if (l.valid()) return l;
        l = FindExprLoc(*e.when_value(i));
        if (l.valid()) return l;
      }
      return FindExprLoc(*e.else_value());
    }
    default:
      return {};
  }
}

/// True when any Scan under `node` reads one of the query's stream inputs.
bool HasStreamScan(const PlanNode& node,
                   const std::vector<sql::ContinuousInput>& inputs) {
  if (node.kind() == PlanKind::kScan) {
    for (const sql::ContinuousInput& in : inputs) {
      if (EqualsIgnoreCase(in.bind_name, node.scan_relation())) return true;
    }
    return false;
  }
  for (const PlanPtr& c : node.children()) {
    if (HasStreamScan(*c, inputs)) return true;
  }
  return false;
}

/// Provenance of output column `col` of `node`, traced down to a stream
/// input's basket column: (basket lower-name, basket column index). nullopt
/// when the column is computed, joins ambiguously, or reaches a static
/// relation.
std::optional<std::pair<std::string, size_t>> ResolveColumn(
    const PlanNode& node, size_t col,
    const std::vector<sql::ContinuousInput>& inputs) {
  switch (node.kind()) {
    case PlanKind::kScan: {
      for (const sql::ContinuousInput& in : inputs) {
        if (!EqualsIgnoreCase(in.bind_name, node.scan_relation())) continue;
        if (col >= node.output_schema().num_fields()) return std::nullopt;
        const std::string& name = node.output_schema().field(col).name;
        std::optional<size_t> idx = in.basket_schema.IndexOf(name);
        if (!idx.has_value()) return std::nullopt;
        return std::make_pair(ToLower(in.basket), *idx);
      }
      return std::nullopt;
    }
    case PlanKind::kFilter:
    case PlanKind::kSort:
    case PlanKind::kLimit:
    case PlanKind::kDistinct:
      return ResolveColumn(*node.child(), col, inputs);
    case PlanKind::kProject: {
      if (col >= node.projections().size()) return std::nullopt;
      const Expr& e = *node.projections()[col];
      if (e.kind() != ExprKind::kColumnRef) return std::nullopt;
      return ResolveColumn(*node.child(), e.column_index(), inputs);
    }
    case PlanKind::kHashJoin: {
      size_t left_arity = node.child(0)->output_schema().num_fields();
      if (col < left_arity) return ResolveColumn(*node.child(0), col, inputs);
      return ResolveColumn(*node.child(1), col - left_arity, inputs);
    }
    case PlanKind::kAggregate: {
      if (col >= node.group_columns().size()) return std::nullopt;
      return ResolveColumn(*node.child(), node.group_columns()[col], inputs);
    }
    case PlanKind::kUnion:
      return std::nullopt;
  }
  return std::nullopt;
}

/// Accumulator bytes of one aggregate: avg keeps sum + count, the rest one
/// 8-byte cell.
int64_t AccumulatorBytes(const AggSpec& a) {
  return a.func == AggFunc::kAvg ? 16 : 8;
}

/// Checked product; nullopt on overflow (treat as symbolic).
std::optional<int64_t> CheckedMul(int64_t a, int64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > std::numeric_limits<int64_t>::max() / b) return std::nullopt;
  return a * b;
}

struct Walker {
  const sql::CompiledQuery& query;
  const CardinalityMap& cardinalities;
  const StateAnalyzerOptions& options;
  AnalysisReport* report;
  std::vector<OperatorStateBound>* ops;

  /// Cardinality hint for output column `col` of `node`'s child chain, via
  /// provenance. Also names the column for diagnostics.
  std::optional<int64_t> HintFor(const PlanNode& below, size_t col,
                                 std::string* col_name) const {
    std::optional<std::pair<std::string, size_t>> src =
        ResolveColumn(below, col, query.inputs);
    if (!src.has_value()) return std::nullopt;
    auto basket = cardinalities.find(src->first);
    if (col_name != nullptr) *col_name = src->first;
    if (basket == cardinalities.end()) return std::nullopt;
    auto hint = basket->second.find(src->second);
    if (hint == basket->second.end()) return std::nullopt;
    return hint->second;
  }

  /// Key-space bound shared by group-by and distinct: every key column must
  /// carry a cardinality hint; the bound is the product of the hints times
  /// the per-key bytes, plus the per-key hash-table entry. A group-by prices
  /// that table exactly as the Aggregate node sizes the
  /// kernel::Int64GroupTable it keeps for one integer-backed key (pow2 slot
  /// arrays dominate small key spaces, so a flat per-entry constant would
  /// undershoot there), so the live accounting stays comparable. Falls back to window-bounded inside
  /// windowed queries, else unbounded (S003).
  StateBound KeyedBound(const PlanNode& node, const PlanNode& below,
                        const std::vector<size_t>& key_columns,
                        int64_t per_key_bytes, bool group_table,
                        const char* what) {
    std::optional<int64_t> keys = 1;
    std::string unhinted;
    for (size_t col : key_columns) {
      std::optional<int64_t> hint = HintFor(below, col, nullptr);
      if (!hint.has_value()) {
        if (col < below.output_schema().num_fields()) {
          unhinted = below.output_schema().field(col).name;
        }
        keys = std::nullopt;
        break;
      }
      if (keys.has_value()) keys = CheckedMul(*keys, *hint);
    }
    SourceLoc loc = FindPlanLoc(node);
    if (keys.has_value()) {
      std::optional<int64_t> bytes;
      std::string detail;
      if (!group_table) {
        bytes = CheckedMul(*keys, per_key_bytes + kPerEntryOverhead);
        detail = std::to_string(*keys) + " keys x " +
                 std::to_string(per_key_bytes + kPerEntryOverhead) +
                 " B/key (hinted)";
      } else if (CheckedMul(*keys, 64).has_value()) {
        // The table estimate is at most 64 B/key; this guard keeps its pow2
        // sizing loop clear of overflow.
        int64_t table =
            static_cast<int64_t>(kernel::Int64GroupTable::EstimatedBytes(
                static_cast<size_t>(*keys)));
        bytes = CheckedMul(*keys, per_key_bytes);
        if (bytes.has_value()) *bytes += table;
        detail = std::to_string(*keys) + " keys x " +
                 std::to_string(per_key_bytes) + " B/key + " +
                 std::to_string(table) + " B group table (hinted)";
      } else {
        detail = std::to_string(*keys) + " keys (hinted)";
      }
      report->Add(DiagCode::kCardinalityHintUsed, Severity::kNote,
                  std::string(what) + " key space bounded by hint: " + detail,
                  loc);
      if (!bytes.has_value()) {
        return StateBound::Key(0, true, detail + "; byte bound overflows");
      }
      return StateBound::Key(*bytes, false, detail);
    }
    if (query.window.kind != sql::WindowSpec::Kind::kNone) {
      // Bounded by the window buffer regardless of the key space: the
      // operator only ever sees one window's rows.
      StateBound bound =
          WindowScaledBound(per_key_bytes + kPerEntryOverhead,
                            std::string(what) + " keys within one window");
      if (group_table && bound.numeric()) {
        // The window's plans keep their group tables between firings: the
        // re-evaluated plan's, or the partial and the merge plan's. Each
        // holds at most one window's keys, at most 64 B/key.
        const int64_t size = query.window.size;
        if (!CheckedMul(size, 128).has_value() ||
            bound.bytes > std::numeric_limits<int64_t>::max() - 128 * size) {
          bound.symbolic = true;
          bound.detail += "; byte bound overflows";
        } else {
          const auto table = static_cast<int64_t>(
              kernel::Int64GroupTable::EstimatedBytes(
                  static_cast<size_t>(size)));
          bound.bytes += 2 * table;
          bound.detail +=
              " + 2 x " + std::to_string(table) + " B group tables";
        }
      }
      return bound;
    }
    report->Add(
        DiagCode::kUnboundedKeyState, Severity::kWarning,
        std::string(what) + " state grows with the distinct key history" +
            (unhinted.empty()
                 ? ""
                 : " — declare WITH (cardinality(" + unhinted + ") = N)"),
        loc);
    return StateBound::Unbounded(std::string(what) + " on unhinted keys");
  }

  /// A per-row cost bounded by the window size: numeric for count windows
  /// (size + slide covers both evaluation modes' buffering), symbolic for
  /// time windows (rows are rate-dependent).
  StateBound WindowScaledBound(int64_t per_row_bytes,
                               std::string what) const {
    const sql::WindowSpec& w = query.window;
    if (w.kind == sql::WindowSpec::Kind::kCount) {
      int64_t rows = w.size + w.slide;
      std::optional<int64_t> bytes = CheckedMul(rows, per_row_bytes);
      std::string detail = what + ": " + std::to_string(rows) + " rows x " +
                           std::to_string(per_row_bytes) + " B";
      if (!bytes.has_value()) return StateBound::Window(0, true, detail);
      return StateBound::Window(*bytes, false, detail);
    }
    return StateBound::Window(
        0, true,
        what + ": rows within " + std::to_string(w.size) +
            " us are rate-dependent");
  }

  void Visit(const PlanNode& node) {
    for (const PlanPtr& c : node.children()) Visit(*c);
    switch (node.kind()) {
      case PlanKind::kLimit: {
        OperatorStateBound op;
        op.op = "Limit";
        op.loc = FindPlanLoc(node);
        op.bound = StateBound::Constant(8, "LIMIT row counter");
        ops->push_back(std::move(op));
        break;
      }
      case PlanKind::kAggregate: {
        const PlanNode& below = *node.child();
        int64_t accum = 0;
        for (const AggSpec& a : node.aggregates()) {
          accum += AccumulatorBytes(a);
        }
        OperatorStateBound op;
        op.loc = FindPlanLoc(node);
        if (node.group_columns().empty()) {
          op.op = "Aggregate(scalar)";
          op.bound = StateBound::Constant(
              accum, std::to_string(node.aggregates().size()) +
                         " scalar accumulators");
        } else {
          op.op = "Aggregate(group-by)";
          int64_t key_bytes = 0;
          for (size_t col : node.group_columns()) {
            if (col < below.output_schema().num_fields()) {
              Schema one;
              one.AddField(below.output_schema().field(col));
              key_bytes += one.EstimatedRowBytes(options.string_bytes);
            }
          }
          op.bound = KeyedBound(node, below, node.group_columns(),
                                key_bytes + accum, /*group_table=*/true,
                                "group-by");
        }
        ops->push_back(std::move(op));
        break;
      }
      case PlanKind::kDistinct: {
        const PlanNode& below = *node.child();
        std::vector<size_t> all(below.output_schema().num_fields());
        for (size_t i = 0; i < all.size(); ++i) all[i] = i;
        OperatorStateBound op;
        op.op = "Distinct";
        op.loc = FindPlanLoc(node);
        op.bound = KeyedBound(
            node, below, all,
            below.output_schema().EstimatedRowBytes(options.string_bytes),
            /*group_table=*/false, "distinct");
        ops->push_back(std::move(op));
        break;
      }
      case PlanKind::kHashJoin: {
        bool left_stream = HasStreamScan(*node.child(0), query.inputs);
        bool right_stream = HasStreamScan(*node.child(1), query.inputs);
        OperatorStateBound op;
        op.loc = FindPlanLoc(node);
        if (left_stream && right_stream) {
          op.op = "HashJoin(stream-stream)";
          op.bound = StateBound::Unbounded(
              "unwindowed stream-stream join retains both full histories");
          report->Add(DiagCode::kUnboundedJoinState, Severity::kWarning,
                      "stream-stream join without a window: join state "
                      "grows with both stream histories",
                      op.loc);
        } else {
          // Stream x static (or static x static under a stream elsewhere):
          // the build side is the static one, bounded by the relation's
          // current size. Catalog tables are append-only, so the figure is
          // a registration-time snapshot — symbolic when unknown.
          const PlanNode& build =
              left_stream ? *node.child(1) : *node.child(0);
          std::string rel;
          for (const std::string& r : build.InputRelations()) rel = r;
          auto rows = options.static_rows.find(ToLower(rel));
          int64_t per_row =
              build.output_schema().EstimatedRowBytes(options.string_bytes);
          op.op = "HashJoin(build '" + rel + "')";
          if (rows != options.static_rows.end()) {
            // Build-side rows plus the hash index sized exactly as the
            // kernel sizes it (pow2 slot arrays dominate small tables, so a
            // flat per-entry constant would undershoot there).
            int64_t index_bytes =
                static_cast<int64_t>(kernel::Int64HashIndex::
                    EstimatedBuildBytes(static_cast<size_t>(rows->second)));
            std::optional<int64_t> bytes =
                CheckedMul(rows->second, per_row);
            if (bytes.has_value()) *bytes += index_bytes;
            std::string detail = "static build side '" + rel + "': " +
                                 std::to_string(rows->second) + " rows x " +
                                 std::to_string(per_row) + " B + " +
                                 std::to_string(index_bytes) + " B index";
            op.bound = bytes.has_value()
                           ? StateBound::Key(*bytes, false, detail)
                           : StateBound::Key(0, true, detail);
          } else {
            op.bound = StateBound::Key(
                0, true, "static build side '" + rel + "' of unknown size");
          }
        }
        ops->push_back(std::move(op));
        break;
      }
      case PlanKind::kScan:
      case PlanKind::kFilter:
      case PlanKind::kProject:
      case PlanKind::kSort:  // re-sorts each fired batch; no carried state
      case PlanKind::kUnion:
        break;
    }
  }
};

}  // namespace

SourceLoc FindPlanLoc(const PlanNode& plan) {
  if (plan.predicate() != nullptr) {
    SourceLoc l = FindExprLoc(*plan.predicate());
    if (l.valid()) return l;
  }
  for (const ExprPtr& p : plan.projections()) {
    SourceLoc l = FindExprLoc(*p);
    if (l.valid()) return l;
  }
  for (const PlanPtr& c : plan.children()) {
    SourceLoc l = FindPlanLoc(*c);
    if (l.valid()) return l;
  }
  return {};
}

Result<StateReport> AnalyzeStateBounds(const sql::CompiledQuery& query,
                                       const CardinalityMap& cardinalities,
                                       const StateAnalyzerOptions& options,
                                       AnalysisReport* report) {
  if (query.plan == nullptr) {
    return Status::InvalidArgument("state analysis needs a compiled plan");
  }
  StateReport out;
  out.shard_copies = options.shard_copies < 1 ? 1 : options.shard_copies;
  if (!query.continuous) {
    out.total = StateBound::Constant(0, "one-time query");
    return out;
  }

  Walker walker{query, cardinalities, options, report, &out.operators};

  // Window buffer: the one piece of cross-firing state every windowed
  // factory owns, before any operator runs.
  if (query.window.kind != sql::WindowSpec::Kind::kNone &&
      !query.inputs.empty()) {
    int64_t per_row =
        query.inputs[0].basket_schema.EstimatedRowBytes(options.string_bytes);
    // An incremental window keeps its aggregate split's partial rows in
    // place of the raw rows they summarise, at most one per raw row: price
    // each row held as the wider of the two.
    if (Result<AggregateSplit> split = SplitAggregate(query.plan); split.ok()) {
      per_row = std::max(per_row, split->partial->output_schema()
                                      .EstimatedRowBytes(options.string_bytes));
    }
    OperatorStateBound op;
    op.op = query.window.kind == sql::WindowSpec::Kind::kCount
                ? "Window(count)"
                : "Window(time)";
    op.loc = FindPlanLoc(*query.plan);
    op.bound = walker.WindowScaledBound(per_row, "window buffer");
    report->Add(DiagCode::kWindowStateBound, Severity::kNote,
                "window buffer bound: " + op.bound.ToString(), op.loc);
    out.operators.push_back(std::move(op));
  }

  walker.Visit(*query.plan);

  StateBound total;
  total.detail.clear();
  for (const OperatorStateBound& op : out.operators) {
    total = StateBound::Sum(total, op.bound);
  }
  if (out.operators.empty()) {
    total = StateBound::Constant(0, "stateless pipeline");
  }
  if (out.shard_copies > 1) {
    report->Add(DiagCode::kShardStateMultiplied, Severity::kNote,
                "state bound multiplied by " +
                    std::to_string(out.shard_copies) + " shard placements",
                FindPlanLoc(*query.plan));
  }
  out.total = total.Scaled(out.shard_copies);

  // Net projection: input-basket retention. Capacity-bounded baskets give a
  // numeric figure; unbounded ones are drained on fire but can back up
  // without a shedding cap — and multi-reader shared baskets additionally
  // hold every tuple until the slowest reader passes it (S006).
  StateBound retention = StateBound::Constant(0, "");
  for (const sql::ContinuousInput& in : query.inputs) {
    std::string basket = ToLower(in.basket);
    int64_t per_row =
        in.basket_schema.EstimatedRowBytes(options.string_bytes);
    auto cap = options.basket_capacity.find(basket);
    size_t capacity = cap == options.basket_capacity.end() ? 0 : cap->second;
    auto rd = options.basket_readers.find(basket);
    size_t readers = rd == options.basket_readers.end() ? 1 : rd->second;
    if (capacity > 0) {
      std::optional<int64_t> bytes =
          CheckedMul(static_cast<int64_t>(capacity), per_row);
      std::string detail = "basket '" + basket + "' capped at " +
                           std::to_string(capacity) + " rows";
      retention = StateBound::Sum(
          retention, bytes.has_value()
                         ? StateBound::Window(*bytes, false, detail)
                         : StateBound::Window(0, true, detail));
    } else {
      retention = StateBound::Sum(
          retention,
          StateBound::Window(0, true,
                             "basket '" + basket +
                                 "' has no shedding capacity (drained on "
                                 "fire; backlog unbounded)"));
      if (readers > 1) {
        report->Add(DiagCode::kBasketRetention, Severity::kNote,
                    "shared basket '" + basket + "' retains tuples for " +
                        std::to_string(readers) +
                        " readers with no shedding capacity — the slowest "
                        "reader bounds retention",
                    FindPlanLoc(*query.plan));
      }
    }
  }
  out.retention = retention.Scaled(out.shard_copies);

  report->Add(DiagCode::kStateBoundNote, Severity::kNote,
              "state bound: " + out.total.ToString(),
              FindPlanLoc(*query.plan));
  return out;
}

std::string StateReport::Describe() const {
  std::string out = "state: " + total.ToString() + "\n";
  for (const OperatorStateBound& op : operators) {
    out += "  " + op.op + ": " + op.bound.ToString() + "\n";
  }
  out += "  retention: " + retention.ToString() + "\n";
  if (shard_copies > 1) {
    out += "  shard placements: x" + std::to_string(shard_copies) + "\n";
  }
  return out;
}

namespace {

void AppendEscaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  out += '"';
}

void AppendBoundJson(std::string& out, const StateBound& b) {
  out += "{\"bound\":\"";
  out += StateBoundKindName(b.kind);
  out += "\",\"bytes\":" + std::to_string(b.bytes);
  out += ",\"symbolic\":";
  out += b.symbolic ? "true" : "false";
  out += ",\"detail\":";
  AppendEscaped(out, b.detail);
  out += "}";
}

}  // namespace

std::string StateReport::ToJson() const {
  std::string out = "{\"verdict\":\"";
  out += StateBoundKindName(total.kind);
  out += "\",\"bytes\":" + std::to_string(total.bytes);
  out += ",\"symbolic\":";
  out += total.symbolic ? "true" : "false";
  out += ",\"shards\":" + std::to_string(shard_copies);
  out += ",\"operators\":[";
  for (size_t i = 0; i < operators.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"op\":";
    AppendEscaped(out, operators[i].op);
    out += ",\"state\":";
    AppendBoundJson(out, operators[i].bound);
    out += "}";
  }
  out += "],\"retention\":";
  AppendBoundJson(out, retention);
  out += "}";
  return out;
}

}  // namespace analysis
}  // namespace datacell
