#include "analysis/partition_analyzer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <set>

#include "algebra/aggregate_split.h"
#include "common/hash.h"

namespace datacell {
namespace analysis {

namespace {

using sql::CompiledQuery;
using sql::WindowSpec;

// ---------------------------------------------------------------------------
// Lattice propagation over the select-project-join part of the plan.
// ---------------------------------------------------------------------------

/// bind_name -> ContinuousInput ordinal, for telling stream scans apart from
/// static-table scans.
using BindMap = std::map<std::string, size_t>;

KeyFlow FlowLower(const PlanNode& node, const BindMap& binds) {
  switch (node.kind()) {
    case PlanKind::kScan: {
      auto it = binds.find(node.scan_relation());
      size_t width = node.output_schema().num_fields();
      if (it != binds.end()) return KeyFlow::StreamScan(it->second, width);
      return KeyFlow::StaticScan(node.scan_relation(), width);
    }
    case PlanKind::kFilter:
      // Per-row: preserves both constraints and provenance.
      return FlowLower(*node.child(), binds);
    case PlanKind::kProject: {
      KeyFlow f = FlowLower(*node.child(), binds);
      if (f.pinned()) return f;
      std::vector<std::optional<ColOrigin>> out(node.projections().size());
      for (size_t i = 0; i < node.projections().size(); ++i) {
        const ExprPtr& e = node.projections()[i];
        if (e->kind() == ExprKind::kColumnRef &&
            e->column_index() < f.origins.size()) {
          out[i] = f.origins[e->column_index()];
        }
      }
      f.origins = std::move(out);
      return f;
    }
    case PlanKind::kHashJoin: {
      KeyFlow l = FlowLower(*node.child(0), binds);
      KeyFlow r = FlowLower(*node.child(1), binds);
      size_t lw = node.child(0)->output_schema().num_fields();
      size_t rw = node.child(1)->output_schema().num_fields();
      if (l.pinned()) return l;
      if (r.pinned()) return r;
      if (!r.has_stream) {
        // Static build side: replicate it to every shard; the probe side
        // drives co-location. The right key column carries the left key's
        // value, so it inherits that provenance.
        KeyFlow out = std::move(l);
        for (const std::string& s : r.static_relations) {
          out.static_relations.push_back(s);
        }
        out.origins.resize(lw);
        out.origins.resize(lw + rw);
        if (node.left_key() < lw) {
          out.origins[lw + node.right_key()] = out.origins[node.left_key()];
        }
        return out;
      }
      if (!l.has_stream) {
        // Mirror image: broadcast the static probe side.
        KeyFlow out = std::move(r);
        for (const std::string& s : l.static_relations) {
          out.static_relations.push_back(s);
        }
        std::vector<std::optional<ColOrigin>> origins(lw + rw);
        for (size_t i = 0; i < out.origins.size() && i < rw; ++i) {
          origins[lw + i] = out.origins[i];
        }
        if (node.right_key() < rw) {
          origins[node.left_key()] = origins[lw + node.right_key()];
        }
        out.origins = std::move(origins);
        return out;
      }
      // Stream-to-stream join. Try co-partitioning on the equi-key pair;
      // fall back to broadcasting the build (right) side.
      std::optional<ColOrigin> lo = node.left_key() < l.origins.size()
                                        ? l.origins[node.left_key()]
                                        : std::nullopt;
      std::optional<ColOrigin> ro = node.right_key() < r.origins.size()
                                        ? r.origins[node.right_key()]
                                        : std::nullopt;
      if (lo.has_value() && ro.has_value()) {
        KeyFlow out = l;
        if (out.CombineConstraints(r) &&
            out.RequireKey(lo->input, lo->column) &&
            out.RequireKey(ro->input, ro->column)) {
          out.origins = l.origins;
          out.origins.resize(lw);
          out.origins.insert(out.origins.end(), r.origins.begin(),
                             r.origins.end());
          out.origins.resize(lw + rw);
          return out;
        }
      }
      // Broadcast fallback: every shard sees every build-side row; any left
      // split then produces each match pair exactly once. Only sound when
      // the build subtree itself has no co-location constraints.
      if (r.req != KeyFlow::Req::kAny || !r.broadcast_inputs.empty()) {
        return KeyFlow::Pinned(
            "join build side cannot be broadcast: it has its own "
            "co-location constraints");
      }
      KeyFlow out = std::move(l);
      out.has_stream = true;
      for (const std::string& s : r.static_relations) {
        out.static_relations.push_back(s);
      }
      for (size_t s : r.stream_inputs) {
        out.broadcast_inputs.insert(s);
        out.stream_inputs.insert(s);
      }
      out.origins.resize(lw);
      out.origins.resize(lw + rw);
      if (node.left_key() < lw) {
        out.origins[lw + node.right_key()] = out.origins[node.left_key()];
      }
      return out;
    }
    case PlanKind::kUnion: {
      KeyFlow l = FlowLower(*node.child(0), binds);
      KeyFlow r = FlowLower(*node.child(1), binds);
      if (l.pinned()) return l;
      if (r.pinned()) return r;
      KeyFlow out = l;
      if (!out.CombineConstraints(r)) return out;
      // A column witnesses co-location only when both branches agree on its
      // provenance.
      for (size_t i = 0; i < out.origins.size(); ++i) {
        if (i >= r.origins.size() || !r.origins[i].has_value() ||
            !out.origins[i].has_value() || !(*out.origins[i] == *r.origins[i])) {
          out.origins[i] = std::nullopt;
        }
      }
      return out;
    }
    default:
      // Aggregate / Sort / Distinct / Limit below a join or a second
      // aggregate: the planner never builds this; pin conservatively.
      return KeyFlow::Pinned("operator '" + node.Describe() +
                             "' in a position the fan-out does not support");
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
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
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

const char* PartitionVerdictName(PartitionVerdict v) {
  switch (v) {
    case PartitionVerdict::kPartitionable:
      return "partitionable";
    case PartitionVerdict::kNeedsFinalMerge:
      return "needs-final-merge";
    case PartitionVerdict::kNeedsBroadcast:
      return "needs-broadcast";
    case PartitionVerdict::kPinned:
      return "pinned";
  }
  return "?";
}

const char* MergeKindName(MergeKind m) {
  switch (m) {
    case MergeKind::kNone:
      return "none";
    case MergeKind::kReaggregate:
      return "reaggregate";
    case MergeKind::kOrderedMerge:
      return "ordered-merge";
  }
  return "?";
}

std::string PartitionReport::Describe() const {
  std::string out = "partition: ";
  out += PartitionVerdictName(verdict);
  if (verdict == PartitionVerdict::kPartitionable && !output_key_name.empty()) {
    out += "(key=" + output_key_name + ")";
  }
  out += "\n";
  if (!pinned_reason.empty()) {
    out += "  reason: " + pinned_reason + "\n";
  }
  for (const ShardKey& k : inputs) {
    out += "  input '" + k.basket + "': ";
    switch (k.kind) {
      case ShardKeyKind::kHash:
        out += "hash(" + k.key_name + ")";
        out += k.declared ? " [declared]" : " [prescribed]";
        break;
      case ShardKeyKind::kAnySplit:
        out += "any-split";
        break;
      case ShardKeyKind::kBroadcast:
        out += "broadcast";
        break;
    }
    out += "\n";
  }
  for (const std::string& r : broadcast_relations) {
    out += "  broadcast table: " + r + "\n";
  }
  if (merge != MergeKind::kNone) {
    out += "  merge: ";
    out += MergeKindName(merge);
    if (merge_per_window) out += " (per window round)";
    out += "\n";
  }
  if (output_key_column.has_value()) {
    out += "  output key: " + output_key_name + " (column " +
           std::to_string(*output_key_column) + ")\n";
  }
  return out;
}

std::string PartitionReport::ToJson() const {
  std::string out = "{\"verdict\":\"";
  out += PartitionVerdictName(verdict);
  out += "\"";
  if (!pinned_reason.empty()) {
    out += ",\"pinned_reason\":\"" + JsonEscape(pinned_reason) + "\"";
  }
  out += ",\"inputs\":[";
  for (size_t i = 0; i < inputs.size(); ++i) {
    const ShardKey& k = inputs[i];
    if (i > 0) out += ",";
    out += "{\"basket\":\"" + JsonEscape(k.basket) + "\",\"bind\":\"" +
           JsonEscape(k.bind_name) + "\",\"split\":\"";
    switch (k.kind) {
      case ShardKeyKind::kHash:
        out += "hash\",\"key\":\"" + JsonEscape(k.key_name) +
               "\",\"key_column\":" + std::to_string(k.key_column) +
               ",\"declared\":" + (k.declared ? "true" : "false");
        break;
      case ShardKeyKind::kAnySplit:
        out += "any\"";
        break;
      case ShardKeyKind::kBroadcast:
        out += "broadcast\"";
        break;
    }
    out += "}";
  }
  out += "],\"broadcast\":[";
  for (size_t i = 0; i < broadcast_relations.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + JsonEscape(broadcast_relations[i]) + "\"";
  }
  out += "],\"merge\":\"";
  out += MergeKindName(merge);
  out += "\",\"merge_per_window\":";
  out += merge_per_window ? "true" : "false";
  if (output_key_column.has_value()) {
    out += ",\"output_key\":\"" + JsonEscape(output_key_name) +
           "\",\"output_key_column\":" + std::to_string(*output_key_column);
  }
  out += "}";
  return out;
}

Result<PartitionReport> AnalyzePartitioning(const CompiledQuery& query,
                                            const PartitionKeyMap& declared,
                                            AnalysisReport* report) {
  AnalysisReport scratch;
  if (report == nullptr) report = &scratch;
  PartitionReport out;
  out.partial_plan = query.plan;
  if (!query.continuous) {
    out.verdict = PartitionVerdict::kPinned;
    out.pinned_reason = "one-time query; executes on the submitting shard";
    return out;
  }

  // Input bookkeeping shared by every exit path.
  BindMap binds;
  for (size_t i = 0; i < query.inputs.size(); ++i) {
    binds[query.inputs[i].bind_name] = i;
    ShardKey k;
    k.basket = query.inputs[i].basket;
    k.bind_name = query.inputs[i].bind_name;
    out.inputs.push_back(std::move(k));
  }
  auto declared_key = [&](size_t input) -> std::optional<size_t> {
    auto it = declared.find(query.inputs[input].basket);
    if (it == declared.end()) return std::nullopt;
    return it->second;
  };
  auto pin = [&](std::string reason) {
    out.verdict = PartitionVerdict::kPinned;
    out.pinned_reason = std::move(reason);
    out.merge = MergeKind::kNone;
    out.merge_plan = nullptr;
    out.partial_plan = query.plan;
    report->Add(DiagCode::kPinnedQuery, Severity::kWarning,
                "query pins a single shard: " + out.pinned_reason, {},
                "query");
  };

  if (query.window.kind == WindowSpec::Kind::kCount) {
    pin("count-based window firing depends on global arrival order");
    return out;
  }

  // Peel the post-join spine: [Limit] [Sort] [Distinct] projections/filters
  // down to the (at most one) Aggregate; everything below is the
  // select-project-join zone the lattice walks.
  std::vector<const PlanNode*> upper;  // root first
  const PlanNode* agg = nullptr;
  const PlanNode* cur = query.plan.get();
  while (agg == nullptr) {
    switch (cur->kind()) {
      case PlanKind::kFilter:
      case PlanKind::kProject:
      case PlanKind::kDistinct:
      case PlanKind::kSort:
      case PlanKind::kLimit:
        upper.push_back(cur);
        cur = cur->child().get();
        continue;
      case PlanKind::kAggregate:
        agg = cur;
        cur = cur->child().get();
        break;
      default:
        break;
    }
    break;
  }

  KeyFlow flow = FlowLower(*cur, binds);
  if (flow.pinned()) {
    pin(flow.pinned_reason);
    return out;
  }

  bool merging = false;
  const PlanNode* sort_node = nullptr;
  // Inputs whose re-shuffle was already reported at the aggregate site (with
  // a source location); the per-input summary loop must not repeat it.
  std::set<size_t> reshuffle_noted;

  // --- aggregate ---------------------------------------------------------
  if (agg != nullptr) {
    // A group column whose provenance is compatible with the existing
    // constraints keeps every group on one shard: no merge needed. Prefer a
    // column that matches the receptor's declared partition key.
    const std::vector<size_t>& gcols = agg->group_columns();
    std::optional<size_t> chosen;  // index into gcols
    std::optional<size_t> fallback;
    for (size_t g = 0; g < gcols.size(); ++g) {
      if (gcols[g] >= flow.origins.size()) continue;
      const auto& o = flow.origins[gcols[g]];
      if (!o.has_value()) continue;
      KeyFlow probe = flow;
      if (!probe.RequireKey(o->input, o->column)) continue;
      if (!fallback.has_value()) fallback = g;
      auto dk = declared_key(o->input);
      if (dk.has_value() && *dk == o->column) {
        chosen = g;
        break;
      }
    }
    if (!chosen.has_value()) chosen = fallback;
    if (chosen.has_value()) {
      const ColOrigin o = *flow.origins[gcols[*chosen]];
      flow.RequireKey(o.input, o.column);
      auto dk = declared_key(o.input);
      if (dk.has_value() && *dk != o.column) {
        reshuffle_noted.insert(o.input);
        report->Add(DiagCode::kReshuffleRequired, Severity::kNote,
                    "group-by key '" +
                        agg->output_schema().field(*chosen).name +
                        "' differs from the declared partition key of '" +
                        query.inputs[o.input].basket +
                        "'; ingest must re-shuffle",
                    agg->child()->projections().size() > gcols[*chosen]
                        ? agg->child()->projections()[gcols[*chosen]]->loc()
                        : SourceLoc{},
                    "Aggregate");
      }
      // Group columns keep their provenance through the aggregate.
      std::vector<std::optional<ColOrigin>> origins(
          agg->output_schema().num_fields());
      for (size_t g = 0; g < gcols.size(); ++g) {
        if (gcols[g] < flow.origins.size()) origins[g] = flow.origins[gcols[g]];
      }
      flow.origins = std::move(origins);
    } else {
      // Groups scatter across shards; the merge plan re-aggregates. Sound
      // for every aggregate the engine has: count/sum/min/max merge
      // directly, avg decomposes into sum + count.
      merging = true;
      out.merge = MergeKind::kReaggregate;
      if (gcols.empty()) {
        report->Add(DiagCode::kScalarAggMerge, Severity::kNote,
                    "scalar aggregate requires a re-aggregation merge "
                    "across shards",
                    {}, "Aggregate");
      } else {
        report->Add(DiagCode::kReshuffleRequired, Severity::kNote,
                    "no group-by column carries a stream partition key; "
                    "per-shard partials are re-aggregated at merge",
                    {}, "Aggregate");
      }
      flow.origins.assign(agg->output_schema().num_fields(), std::nullopt);
    }
  }

  // --- post-aggregate spine, bottom-up ------------------------------------
  for (auto it = upper.rbegin(); it != upper.rend(); ++it) {
    const PlanNode* n = *it;
    switch (n->kind()) {
      case PlanKind::kFilter:
        break;  // per-row, per-group: transparent either way
      case PlanKind::kProject: {
        if (merging) break;  // lives on the merge side
        std::vector<std::optional<ColOrigin>> o(n->projections().size());
        for (size_t i = 0; i < n->projections().size(); ++i) {
          const ExprPtr& e = n->projections()[i];
          if (e->kind() == ExprKind::kColumnRef &&
              e->column_index() < flow.origins.size()) {
            o[i] = flow.origins[e->column_index()];
          }
        }
        flow.origins = std::move(o);
        break;
      }
      case PlanKind::kDistinct: {
        if (merging) break;  // rebuilt after the merge re-aggregation
        // Duplicates are identical rows, so they co-locate iff some input
        // column is a split key. Without one, per-shard DISTINCT under-
        // deduplicates: not decomposable, pin.
        std::optional<ColOrigin> witness;
        for (const auto& o : flow.origins) {
          if (!o.has_value()) continue;
          KeyFlow probe = flow;
          if (!probe.RequireKey(o->input, o->column)) continue;
          auto dk = declared_key(o->input);
          if (dk.has_value() && *dk == o->column) {
            witness = o;
            break;
          }
          if (!witness.has_value()) witness = o;
        }
        if (!witness.has_value()) {
          pin("DISTINCT over columns that carry no partition key is not "
              "decomposable");
          return out;
        }
        flow.RequireKey(witness->input, witness->column);
        break;
      }
      case PlanKind::kSort:
        sort_node = n;
        if (!merging) {
          merging = true;
          out.merge = MergeKind::kOrderedMerge;
          report->Add(DiagCode::kOrderedMergeRequired, Severity::kNote,
                      "ordered emit: per-shard outputs are re-sorted at "
                      "merge (k-way merge equivalent)",
                      {}, "Sort");
        }
        break;
      case PlanKind::kLimit:
        if (!merging) {
          pin("LIMIT without ORDER BY selects arbitrary rows; cannot fan "
              "out deterministically");
          return out;
        }
        break;
      default:
        pin("unexpected operator on the output spine: " + n->Describe());
        return out;
    }
  }

  // --- synthesize the per-shard and merge plans ---------------------------
  if (merging) {
    if (out.merge == MergeKind::kReaggregate) {
      DC_ASSIGN_OR_RETURN(AggregateSplit split, SplitAggregate(query.plan));
      out.partial_plan = std::move(split.partial);
      out.merge_plan = std::move(split.merge);
    } else {
      // Ordered merge: the partial is everything below the sort; the merge
      // re-sorts the concatenated partials and re-applies what sat above,
      // nearest the sort first.
      out.partial_plan = sort_node->child();
      DC_ASSIGN_OR_RETURN(PlanPtr merge,
                          ScanPartials(out.partial_plan->output_schema()));
      DC_ASSIGN_OR_RETURN(merge, MakeSort(merge, sort_node->sort_keys()));
      size_t sort_pos = 0;
      while (upper[sort_pos] != sort_node) ++sort_pos;
      for (size_t i = sort_pos; i-- > 0;) {
        DC_ASSIGN_OR_RETURN(merge, RebuildAbove(std::move(merge), *upper[i]));
      }
      out.merge_plan = merge;
    }
    out.verdict = PartitionVerdict::kNeedsFinalMerge;
  } else {
    out.partial_plan = query.plan;
    out.verdict = (!flow.static_relations.empty() ||
                   !flow.broadcast_inputs.empty())
                      ? PartitionVerdict::kNeedsBroadcast
                      : PartitionVerdict::kPartitionable;
  }
  out.merge_per_window =
      out.merge != MergeKind::kNone && query.window.kind == WindowSpec::Kind::kTime;
  if (out.merge_per_window) {
    report->Add(DiagCode::kWindowMergeRequired, Severity::kNote,
                "time-window query: the merge step runs once per aligned "
                "window round",
                {}, "query");
  }

  // --- per-input shard keys + advisory diagnostics ------------------------
  out.broadcast_relations = flow.static_relations;
  std::sort(out.broadcast_relations.begin(), out.broadcast_relations.end());
  out.broadcast_relations.erase(std::unique(out.broadcast_relations.begin(),
                                            out.broadcast_relations.end()),
                                out.broadcast_relations.end());
  for (const std::string& r : out.broadcast_relations) {
    report->Add(DiagCode::kBroadcastJoinInput, Severity::kNote,
                "table '" + r + "' is replicated to every shard", {},
                "HashJoin");
  }
  for (size_t i = 0; i < out.inputs.size(); ++i) {
    ShardKey& k = out.inputs[i];
    const Schema& bschema = query.inputs[i].basket_schema;
    if (flow.broadcast_inputs.count(i) > 0) {
      k.kind = ShardKeyKind::kBroadcast;
      report->Add(DiagCode::kBroadcastJoinInput, Severity::kNote,
                  "stream '" + k.basket +
                      "' feeds a join side that is not co-partitioned; its "
                      "rows are broadcast to every shard",
                  {}, "HashJoin");
      continue;
    }
    auto req = flow.required.find(i);
    auto dk = declared_key(i);
    if (req != flow.required.end()) {
      k.kind = ShardKeyKind::kHash;
      k.key_column = req->second;
      k.key_name = bschema.field(req->second).name;
      k.declared = dk.has_value() && *dk == req->second;
      if (!dk.has_value()) {
        report->Add(DiagCode::kPrescribedPartitionKey, Severity::kNote,
                    "stream '" + k.basket +
                        "' has no declared partition key; the fan-out "
                        "requires 'partition by " +
                        k.key_name + "'",
                    {}, "query");
      } else if (*dk != req->second && reshuffle_noted.count(i) == 0) {
        report->Add(DiagCode::kReshuffleRequired, Severity::kNote,
                    "stream '" + k.basket + "' is ingested on key '" +
                        bschema.field(*dk).name +
                        "' but this query co-locates on '" + k.key_name +
                        "'; ingest must re-shuffle",
                    {}, "query");
      }
    } else if (dk.has_value()) {
      // No constraint from this query; ride the declared ingest key.
      k.kind = ShardKeyKind::kHash;
      k.key_column = *dk;
      k.key_name = bschema.field(*dk).name;
      k.declared = true;
    } else {
      k.kind = ShardKeyKind::kAnySplit;
    }
  }

  // Which output column still carries a shard key, for downstream queries
  // over the emitted stream.
  if (out.verdict == PartitionVerdict::kPartitionable ||
      out.verdict == PartitionVerdict::kNeedsBroadcast) {
    for (size_t c = 0; c < flow.origins.size(); ++c) {
      const auto& o = flow.origins[c];
      if (!o.has_value()) continue;
      const ShardKey& k = out.inputs[o->input];
      if (k.kind == ShardKeyKind::kHash && k.key_column == o->column) {
        out.output_key_column = c;
        out.output_key_name = query.output_schema.field(c).name;
        break;
      }
    }
    bool keyed = std::any_of(out.inputs.begin(), out.inputs.end(),
                             [](const ShardKey& k) {
                               return k.kind == ShardKeyKind::kHash;
                             });
    if (keyed && !out.output_key_column.has_value()) {
      report->Add(DiagCode::kPartitionKeyDropped, Severity::kNote,
                  "the output carries no partition-key column; queries "
                  "over the emitted stream cannot inherit the key",
                  {}, "query");
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Split-merge equivalence oracle.
// ---------------------------------------------------------------------------

namespace {

// The row-hash lives in common/hash.h (HashValue and the typed helpers):
// the shard router uses the same function on raw BAT columns, so a verdict
// this oracle certifies describes exactly the runtime split.

Result<TablePtr> ApplyConsume(const sql::ContinuousInput& in,
                              const TablePtr& table) {
  if (in.consume_predicate == nullptr) return table;
  DC_ASSIGN_OR_RETURN(std::vector<size_t> pos,
                      EvaluatePredicate(*in.consume_predicate, *table));
  return TablePtr(table->Take(pos));
}

/// Total order over values for canonicalizing row multisets.
int CompareValues(const Value& a, const Value& b) {
  auto rank = [](const Value& v) -> int {
    if (v.is_null()) return 0;
    if (v.is_bool()) return 1;
    if (v.is_int64() || v.is_timestamp() || v.is_double()) return 2;
    return 3;
  };
  int ra = rank(a), rb = rank(b);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (ra) {
    case 0:
      return 0;
    case 1:
      return (a.bool_value() ? 1 : 0) - (b.bool_value() ? 1 : 0);
    case 2: {
      double x = a.AsDouble(), y = b.AsDouble();
      if (x < y) return -1;
      if (x > y) return 1;
      return 0;
    }
    default:
      return a.string_value().compare(b.string_value());
  }
}

bool ValuesClose(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_double() || b.is_double()) {
    if (!(a.is_double() || a.is_int64() || a.is_timestamp())) return false;
    if (!(b.is_double() || b.is_int64() || b.is_timestamp())) return false;
    double x = a.AsDouble(), y = b.AsDouble();
    if (std::isnan(x) || std::isnan(y)) return std::isnan(x) == std::isnan(y);
    double scale = std::max({1.0, std::fabs(x), std::fabs(y)});
    return std::fabs(x - y) <= 1e-6 * scale;
  }
  return CompareValues(a, b) == 0;
}

/// Projects `rows` onto `cols` (all columns when empty), sorts
/// canonically, and compares pairwise with double tolerance.
bool RowMultisetsMatch(std::vector<Row> a, std::vector<Row> b,
                       const std::vector<size_t>& cols, std::string* detail) {
  auto project = [&](std::vector<Row>& rows) {
    if (cols.empty()) return;
    for (Row& r : rows) {
      Row p;
      for (size_t c : cols) p.push_back(r[c]);
      r = std::move(p);
    }
  };
  project(a);
  project(b);
  auto less = [](const Row& x, const Row& y) {
    for (size_t i = 0; i < x.size() && i < y.size(); ++i) {
      int c = CompareValues(x[i], y[i]);
      if (c != 0) return c < 0;
    }
    return x.size() < y.size();
  };
  std::sort(a.begin(), a.end(), less);
  std::sort(b.begin(), b.end(), less);
  if (a.size() != b.size()) {
    *detail = "row count mismatch: reference " + std::to_string(a.size()) +
              " vs merged " + std::to_string(b.size());
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t c = 0; c < a[i].size(); ++c) {
      if (!ValuesClose(a[i][c], b[i][c])) {
        *detail = "row " + std::to_string(i) + " column " + std::to_string(c) +
                  ": reference " + a[i][c].ToString() + " vs merged " +
                  b[i][c].ToString();
        return false;
      }
    }
  }
  return true;
}

}  // namespace

Result<SplitMergeResult> CheckSplitMergeEquivalence(
    const CompiledQuery& query, const PartitionReport& report,
    const std::vector<TablePtr>& input_tables, const PlanBindings& statics,
    size_t num_shards) {
  if (!query.continuous || input_tables.size() != query.inputs.size()) {
    return Status::InvalidArgument(
        "oracle needs a continuous query and one table per stream input");
  }
  if (report.inputs.size() != query.inputs.size()) {
    return Status::InvalidArgument("report does not match the query");
  }

  // Consume-predicate-filtered slices, as the factory would drain them.
  std::vector<TablePtr> slices;
  for (size_t i = 0; i < query.inputs.size(); ++i) {
    DC_ASSIGN_OR_RETURN(TablePtr s,
                        ApplyConsume(query.inputs[i], input_tables[i]));
    slices.push_back(std::move(s));
  }

  // Reference: single-node execution over the full slices.
  PlanBindings ref = statics;
  for (size_t i = 0; i < slices.size(); ++i) {
    ref[query.inputs[i].bind_name] = slices[i];
  }
  DC_ASSIGN_OR_RETURN(TablePtr reference, ExecutePlan(*query.plan, ref));

  // Sharded: split per the report, run the partial plan per shard.
  const PlanNode& partial =
      report.partial_plan != nullptr ? *report.partial_plan : *query.plan;
  std::vector<TablePtr> shard_outputs;
  for (size_t s = 0; s < num_shards; ++s) {
    PlanBindings bind = statics;
    for (size_t i = 0; i < slices.size(); ++i) {
      const ShardKey& k = report.inputs[i];
      std::vector<size_t> pos;
      for (size_t r = 0; r < slices[i]->num_rows(); ++r) {
        size_t dest = 0;
        switch (k.kind) {
          case ShardKeyKind::kBroadcast:
            dest = s;  // every shard takes every row
            break;
          case ShardKeyKind::kAnySplit:
            dest = r % num_shards;
            break;
          case ShardKeyKind::kHash:
            dest = static_cast<size_t>(
                HashValue(slices[i]->GetRow(r)[k.key_column]) % num_shards);
            break;
        }
        if (dest == s) pos.push_back(r);
      }
      bind[query.inputs[i].bind_name] = TablePtr(slices[i]->Take(pos));
    }
    DC_ASSIGN_OR_RETURN(TablePtr part, ExecutePlan(partial, bind));
    shard_outputs.push_back(std::move(part));
  }

  // Merge: run the merge plan over the partials-basket row, as the frontend
  // factory does, when one is prescribed; else concatenate.
  TablePtr result;
  if (report.merge_plan != nullptr) {
    PlanBindings bind;
    bind[kPartialsBinding] =
        PartialsRowTable(partial.output_schema(), shard_outputs);
    DC_ASSIGN_OR_RETURN(result, ExecutePlan(*report.merge_plan, bind));
  } else {
    auto merged = std::make_shared<Table>("", partial.output_schema());
    for (const TablePtr& p : shard_outputs) {
      DC_RETURN_NOT_OK(merged->AppendTable(*p));
    }
    result = merged;
  }

  // LIMIT leaves the tie-break at the cut unspecified: compare row count
  // and sort-key columns only. Everything else compares full rows.
  std::vector<size_t> cols;
  if (query.plan->kind() == PlanKind::kLimit) {
    const PlanNode& below = *query.plan->child();
    if (below.kind() == PlanKind::kSort) {
      for (const SortKey& sk : below.sort_keys()) cols.push_back(sk.column);
    }
  }

  SplitMergeResult r;
  r.equivalent = RowMultisetsMatch(reference->ToRows(), result->ToRows(),
                                   cols, &r.detail);
  return r;
}

}  // namespace analysis
}  // namespace datacell
