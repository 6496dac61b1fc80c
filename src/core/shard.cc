#include "core/shard.h"

#include <algorithm>
#include <set>

#include "algebra/aggregate_split.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "core/engine_metrics.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace datacell {

namespace {

/// Shard-side egress of a merged query: appends every emitted partial batch
/// into the frontend engine's `<query>__partials` stream. Emitters call
/// OnBatch from shard worker threads; the basket's monitor serialises the
/// appends.
class ForwardingSink final : public ResultSink {
 public:
  explicit ForwardingSink(BasketPtr target) : target_(std::move(target)) {}

  void OnBatch(const Table& batch, Timestamp) override {
    // Emitted batches carry the partial plan's full row (including its ts
    // column when it has one), which is exactly the partials basket's row
    // shape: its trailing column is the basket ts, kept as stamped.
    Status st = target_->AppendTable(batch, std::nullopt);
    if (!st.ok()) {
      DC_LOG(Error) << "partials forward failed: " << st.message();
    }
  }

 private:
  BasketPtr target_;
};

uint64_t HashBatCell(const Bat& col, size_t row) {
  if (col.IsNull(row)) return 0;
  switch (col.type()) {
    case DataType::kBool:
      return HashBool(col.BoolAt(row));
    case DataType::kInt64:
    case DataType::kTimestamp:
      return HashInt64(col.Int64At(row));
    case DataType::kDouble:
      return HashDouble(col.DoubleAt(row));
    case DataType::kString:
      return HashString(col.StringAt(row));
  }
  return 0;
}

}  // namespace

const char* RouteKindName(RouteKind k) {
  switch (k) {
    case RouteKind::kRoundRobin:
      return "round-robin";
    case RouteKind::kHash:
      return "hash";
    case RouteKind::kBroadcast:
      return "broadcast";
    case RouteKind::kSingle:
      return "single";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// ShardedEngine: construction
// ---------------------------------------------------------------------------

ShardedEngine::ShardedEngine(ShardedEngineOptions options)
    : options_(std::move(options)) {
  options_.num_shards = std::max<size_t>(1, options_.num_shards);
  shards_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    EngineOptions eo = options_.engine;
    eo.shard_index = static_cast<int>(i);
    shards_.push_back(std::make_unique<Engine>(eo));
  }
  // The frontend engine runs the merge queries. It takes the shard template
  // with these fixed values.
  EngineOptions fo = options_.engine;
  fo.monitor_tick_us = 0;    // sys.* telemetry describes the shards' nets
  fo.max_basket_tuples = 0;  // partial rows are results: never shed
  // The shards already ran the pass-4 admission gate on the whole query.
  fo.max_query_state_bytes = 0;
  fo.max_engine_state_bytes = 0;
  frontend_ = std::make_unique<Engine>(fo);
  routed_ = std::make_unique<Counter[]>(options_.num_shards);
  metrics_.SetCollector(
      [this](MetricsSnapshotData& out) { CollectMetrics(out); });
}

ShardedEngine::~ShardedEngine() { Stop(); }

int64_t ShardedEngine::routed_tuples() const {
  int64_t total = 0;
  for (size_t s = 0; s < shards_.size(); ++s) total += routed_[s].value();
  return total;
}

void ShardedEngine::CollectMetrics(MetricsSnapshotData& out) const {
  for (size_t s = 0; s < shards_.size(); ++s) {
    out.Add(series::kShardRouted, {std::to_string(s)}, routed_[s].value());
  }
  out.Add(series::kShardBroadcast, {}, broadcast_.value());
}

// ---------------------------------------------------------------------------
// Stream routes
// ---------------------------------------------------------------------------

ShardedEngine::RouteState* ShardedEngine::FindRoute(const std::string& name) {
  auto it = routes_.find(ToLower(name));
  return it == routes_.end() ? nullptr : &it->second;
}

const ShardedEngine::RouteState* ShardedEngine::FindRoute(
    const std::string& name) const {
  auto it = routes_.find(ToLower(name));
  return it == routes_.end() ? nullptr : &it->second;
}

Status ShardedEngine::RegisterRoute(const std::string& name,
                                    const Schema& user_schema,
                                    const std::string& partition_key) {
  std::lock_guard<std::mutex> lock(routes_mu_);
  RouteState st;
  st.user_schema = user_schema;
  st.scratch.resize(shards_.size());
  for (ColumnBatch& b : st.scratch) b.Reset(user_schema);
  st.positions.resize(shards_.size());
  if (!partition_key.empty()) {
    auto idx = user_schema.IndexOf(partition_key);
    if (!idx.has_value()) {
      return Status::NotFound("PARTITION BY column '" + partition_key +
                              "' is not a column of '" + name + "'");
    }
    st.route.kind = RouteKind::kHash;
    st.route.key_column = *idx;
    st.route.key_name = user_schema.field(*idx).name;
    st.declared_only = true;
  }
  routes_[ToLower(name)] = std::move(st);
  return Status::OK();
}

Status ShardedEngine::CreateStream(const std::string& name,
                                   const Schema& user_schema,
                                   const std::string& partition_key) {
  for (auto& shard : shards_) {
    DC_RETURN_NOT_OK(shard->CreateStream(name, user_schema).status());
    if (!partition_key.empty()) {
      DC_RETURN_NOT_OK(shard->SetStreamPartitionKey(name, partition_key));
    }
  }
  return RegisterRoute(name, user_schema, partition_key);
}

Result<ShardedEngine::StreamRoute> ShardedEngine::GetRoute(
    const std::string& stream) const {
  std::lock_guard<std::mutex> lock(routes_mu_);
  const RouteState* r = FindRoute(stream);
  if (r == nullptr) {
    return Status::NotFound("no ingest route for stream '" + stream + "'");
  }
  return r->route;
}

// ---------------------------------------------------------------------------
// Constraint lattice
// ---------------------------------------------------------------------------

Result<ShardedEngine::StreamRoute> ShardedEngine::CheckConstraint(
    const RouteClaim& claim, const Constraint& c, int home) const {
  const StreamRoute& cur = claim.route;
  StreamRoute next = cur;
  switch (c.need) {
    case Need::kSplit:
      // Any disjoint split: round-robin, hash and single all qualify;
      // broadcast would duplicate rows into the split consumer.
      if (cur.kind == RouteKind::kBroadcast) {
        return Status::FailedPrecondition(
            "stream '" + c.stream +
            "' is broadcast to every shard; a partitioned consumer would "
            "see each row " +
            std::to_string(shards_.size()) + " times");
      }
      return next;
    case Need::kHash:
      switch (cur.kind) {
        case RouteKind::kRoundRobin:
          next.kind = RouteKind::kHash;
          next.key_column = c.hash_column;
          next.key_name = c.hash_name;
          return next;
        case RouteKind::kHash:
          if (cur.key_column != c.hash_column) {
            return Status::FailedPrecondition(
                "stream '" + c.stream + "' is hash-split on '" +
                cur.key_name + "' but the query needs co-location on '" +
                c.hash_name + "'");
          }
          return next;
        case RouteKind::kSingle:
          // One shard holds every row: any key is trivially co-located.
          return next;
        case RouteKind::kBroadcast:
          return Status::FailedPrecondition(
              "stream '" + c.stream +
              "' is broadcast; hash-partitioned consumption would count "
              "each row once per shard");
      }
      break;
    case Need::kBroadcast:
      switch (cur.kind) {
        case RouteKind::kBroadcast:
          return next;
        case RouteKind::kRoundRobin:
        case RouteKind::kHash:
        case RouteKind::kSingle:
          // Upgrading to broadcast duplicates rows into every existing
          // split/hash consumer; whole-stream (pinned) consumers keep
          // seeing exactly the whole stream on their home shard.
          if (claim.split_consumers > 0 || claim.hash_consumers > 0) {
            return Status::FailedPrecondition(
                "stream '" + c.stream +
                "' already feeds partitioned consumers and cannot be "
                "broadcast");
          }
          next.kind = RouteKind::kBroadcast;
          next.home_shard = -1;
          return next;
      }
      break;
    case Need::kWhole:
      DC_CHECK(home >= 0);
      switch (cur.kind) {
        case RouteKind::kBroadcast:
          // Every shard (the home included) sees the whole stream.
          return next;
        case RouteKind::kSingle:
          if (cur.home_shard != home) {
            return Status::FailedPrecondition(
                "stream '" + c.stream + "' is pinned to shard " +
                std::to_string(cur.home_shard) +
                " but the query is placed on shard " + std::to_string(home));
          }
          return next;
        case RouteKind::kRoundRobin:
        case RouteKind::kHash:
          // A single home shard is a valid disjoint split (existing split
          // consumers stay exact) and trivially co-locates any hash key
          // (existing hash consumers' other-shard instances simply go
          // idle), so the downgrade is always sound.
          next.kind = RouteKind::kSingle;
          next.home_shard = home;
          return next;
      }
      break;
  }
  return Status::Internal("unhandled route constraint");
}

void ShardedEngine::CommitConstraint(RouteClaim& claim, const Constraint& c,
                                     const StreamRoute& new_route) {
  claim.route = new_route;
  switch (c.need) {
    case Need::kSplit:
      ++claim.split_consumers;
      break;
    case Need::kHash:
      ++claim.hash_consumers;
      break;
    case Need::kBroadcast:
      ++claim.broadcast_consumers;
      break;
    case Need::kWhole:
      ++claim.whole_consumers;
      break;
  }
}

// ---------------------------------------------------------------------------
// Ingest routing
// ---------------------------------------------------------------------------

Status ShardedEngine::Ingest(const std::string& name, const Row& values) {
  return IngestBatch(name, {values});
}

Status ShardedEngine::IngestBatch(const std::string& name,
                                  const std::vector<Row>& rows) {
  ColumnBatch batch;
  {
    std::lock_guard<std::mutex> lock(routes_mu_);
    RouteState* r = FindRoute(name);
    if (r == nullptr) {
      return Status::NotFound("no ingest route for stream '" + name + "'");
    }
    batch.Reset(r->user_schema);
  }
  // Validate the whole batch before any shard sees a row: a rejected batch
  // lands nowhere.
  DC_RETURN_NOT_OK(batch.AppendRows(rows));
  return IngestColumns(name, std::move(batch));
}

Status ShardedEngine::IngestColumns(const std::string& name,
                                    ColumnBatch&& batch) {
  std::lock_guard<std::mutex> lock(routes_mu_);
  RouteState* r = FindRoute(name);
  if (r == nullptr) {
    return Status::NotFound("no ingest route for stream '" + name + "'");
  }
  const size_t rows = batch.num_rows();
  if (rows == 0) return Status::OK();
  const size_t n = shards_.size();
  if (n == 1 || r->route.kind == RouteKind::kSingle) {
    const size_t home =
        (n == 1 || r->route.kind != RouteKind::kSingle)
            ? 0
            : static_cast<size_t>(r->route.home_shard);
    DC_RETURN_NOT_OK(shards_[home]->IngestColumns(name, std::move(batch)));
    routed_[home].Inc(static_cast<int64_t>(rows));
    return Status::OK();
  }
  if (!batch.MatchesSchema(r->user_schema)) {
    return Status::TypeError("columnar batch does not match stream '" + name +
                             "' schema");
  }
  if (r->route.kind == RouteKind::kBroadcast) {
    // Copy into the first n-1 shards' scratch batches, move the original
    // into the last — one full-batch gather per extra shard.
    std::vector<size_t>& identity = r->positions[0];
    identity.clear();
    identity.reserve(rows);
    for (size_t i = 0; i < rows; ++i) identity.push_back(i);
    for (size_t s = 0; s + 1 < n; ++s) {
      ColumnBatch& scratch = r->scratch[s];
      scratch.Clear();
      for (size_t c = 0; c < batch.num_columns(); ++c) {
        scratch.column(c).AppendPositions(batch.column(c), identity);
      }
      DC_RETURN_NOT_OK(shards_[s]->IngestColumns(name, std::move(scratch)));
    }
    DC_RETURN_NOT_OK(shards_[n - 1]->IngestColumns(name, std::move(batch)));
    broadcast_.Inc(static_cast<int64_t>(n * rows));
    return Status::OK();
  }
  // Round-robin / hash: column-wise zero-copy gather into per-shard scratch
  // batches. The scratch buffers recycle through the shard baskets' swap
  // protocol (IngestColumns hands back the basket's previous empty buffers),
  // so the steady state allocates nothing.
  for (size_t s = 0; s < n; ++s) r->positions[s].clear();
  if (r->route.kind == RouteKind::kRoundRobin) {
    for (size_t i = 0; i < rows; ++i) {
      r->positions[(r->rr_cursor + i) % n].push_back(i);
    }
    r->rr_cursor += rows;
  } else {
    const Bat& key = batch.column(r->route.key_column);
    for (size_t i = 0; i < rows; ++i) {
      r->positions[HashBatCell(key, i) % n].push_back(i);
    }
  }
  for (size_t s = 0; s < n; ++s) {
    if (r->positions[s].empty()) continue;
    ColumnBatch& scratch = r->scratch[s];
    scratch.Clear();
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      scratch.column(c).AppendPositions(batch.column(c), r->positions[s]);
    }
    DC_RETURN_NOT_OK(shards_[s]->IngestColumns(name, std::move(scratch)));
    routed_[s].Inc(static_cast<int64_t>(r->positions[s].size()));
  }
  batch.Clear();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SQL entry points
// ---------------------------------------------------------------------------

Status ShardedEngine::FanOut(const sql::Statement& stmt) {
  for (auto& shard : shards_) {
    DC_RETURN_NOT_OK(shard->Execute(stmt).status());
  }
  return Status::OK();
}

Result<TablePtr> ShardedEngine::Execute(const sql::Statement& stmt) {
  switch (stmt.kind) {
    case sql::Statement::Kind::kSelect:
      return ExecuteGatherSelect(*stmt.select);
    case sql::Statement::Kind::kCreate:
      DC_RETURN_NOT_OK(FanOut(stmt));
      if (stmt.create->is_basket) {
        DC_ASSIGN_OR_RETURN(BasketPtr basket,
                            shards_[0]->GetBasket(stmt.create->name));
        DC_RETURN_NOT_OK(RegisterRoute(stmt.create->name, basket->user_schema(),
                                       stmt.create->partition_by));
      }
      break;
    case sql::Statement::Kind::kInsert:
      DC_RETURN_NOT_OK(ExecuteInsertRouted(stmt));
      break;
    case sql::Statement::Kind::kDrop: {
      // Check on every shard before any shard drops: shard catalogs stay
      // identical even when only one shard hosts a consumer.
      for (auto& shard : shards_) {
        DC_RETURN_NOT_OK(shard->CheckDrop(*stmt.drop));
      }
      DC_RETURN_NOT_OK(FanOut(stmt));
      std::lock_guard<std::mutex> lock(routes_mu_);
      routes_.erase(ToLower(stmt.drop->name));
      internal_.erase(ToLower(stmt.drop->name));
      break;
    }
  }
  return std::make_shared<Table>("", Schema{});
}

Result<TablePtr> ShardedEngine::ExecuteSql(const std::string& sql) {
  DC_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseStatement(sql));
  return Execute(stmt);
}

Result<TablePtr> ShardedEngine::ExecuteScript(const std::string& script) {
  DC_ASSIGN_OR_RETURN(std::vector<sql::Statement> statements,
                      sql::ParseScript(script));
  TablePtr last = std::make_shared<Table>("", Schema{});
  for (const sql::Statement& stmt : statements) {
    DC_ASSIGN_OR_RETURN(TablePtr result, Execute(stmt));
    if (stmt.kind == sql::Statement::Kind::kSelect) last = std::move(result);
  }
  return last;
}

Status ShardedEngine::ExecuteInsertRouted(const sql::Statement& stmt) {
  const std::string& table = stmt.insert->table;
  Schema user;
  {
    std::lock_guard<std::mutex> lock(routes_mu_);
    RouteState* r = FindRoute(table);
    if (r == nullptr) {
      // Static tables replicate: the same INSERT lands on every shard.
      // Unrouted streams (query outputs, sys.*) cannot take frontend rows.
      if (shards_[0]->GetBasket(table).ok()) {
        return Status::FailedPrecondition(
            "stream '" + table + "' has no frontend ingest route");
      }
      return FanOut(stmt);
    }
    user = r->user_schema;
  }
  DC_ASSIGN_OR_RETURN(std::vector<Row> rows,
                      sql::BindInsertRows(*stmt.insert, user));
  return IngestBatch(table, rows);
}

Result<TablePtr> ShardedEngine::ExecuteGatherSelect(
    const sql::SelectStmt& stmt) {
  sql::Planner planner(&shards_[0]->catalog());
  DC_ASSIGN_OR_RETURN(sql::CompiledQuery query, planner.CompileSelect(stmt));
  if (query.continuous) {
    return Status::InvalidArgument(
        "continuous query submitted to the one-time path; use "
        "SubmitContinuousQuery");
  }
  PlanBindings bindings;
  for (const std::string& rel : query.plan->InputRelations()) {
    DC_ASSIGN_OR_RETURN(RelationKind kind, shards_[0]->catalog().KindOf(rel));
    if (kind == RelationKind::kBasket) {
      bool is_broadcast = false;
      {
        std::lock_guard<std::mutex> lock(routes_mu_);
        const RouteState* route = FindRoute(rel);
        is_broadcast =
            route != nullptr && route->route.kind == RouteKind::kBroadcast;
      }
      if (is_broadcast) {
        // Every shard holds the whole stream; one snapshot is the truth.
        auto basket = shards_[0]->GetBasket(rel);
        if (basket.ok()) {
          bindings[rel] = (*basket)->PeekSnapshot();
          continue;
        }
      }
      // Gather semantics: the logical basket content is the union of the
      // per-shard baskets (exactly one shard holds each routed row).
      TablePtr acc;
      for (auto& shard : shards_) {
        auto basket = shard->GetBasket(rel);
        if (!basket.ok()) continue;
        TablePtr snap = (*basket)->PeekSnapshot();
        if (acc == nullptr) {
          acc = std::move(snap);
        } else {
          DC_RETURN_NOT_OK(acc->AppendTable(*snap));
        }
      }
      if (acc == nullptr) {
        DC_ASSIGN_OR_RETURN(TablePtr t, shards_[0]->catalog().Get(rel));
        acc = TablePtr(t->Clone());
      }
      bindings[rel] = std::move(acc);
    } else {
      DC_ASSIGN_OR_RETURN(bindings[rel], shards_[0]->catalog().Get(rel));
    }
  }
  return ExecutePlan(*query.plan, bindings);
}

// ---------------------------------------------------------------------------
// Continuous query placement
// ---------------------------------------------------------------------------

Result<QueryId> ShardedEngine::SubmitContinuousQuery(const std::string& name,
                                                     const std::string& sql,
                                                     QueryOptions options) {
  // Compile against shard 0's catalog (DDL fans out, so all shard catalogs
  // are identical) purely to classify; the shards re-compile for execution.
  DC_ASSIGN_OR_RETURN(sql::CompiledQuery query,
                      shards_[0]->CompileContinuous(sql));

  auto report = std::make_shared<analysis::PartitionReport>();
  {
    analysis::AnalysisReport scratch;
    auto res = analysis::AnalyzePartitioning(
        query, shards_[0]->DeclaredPartitionKeys(), &scratch);
    if (res.ok()) {
      *report = std::move(*res);
    } else {
      report->verdict = analysis::PartitionVerdict::kPinned;
      report->pinned_reason = res.status().message();
    }
  }

  using analysis::PartitionVerdict;
  using analysis::ShardKeyKind;
  PartitionVerdict verdict = report->verdict;
  std::string pin_reason = report->pinned_reason;
  ProcessingStrategy strategy =
      options.strategy.value_or(options_.engine.default_strategy);
  if (verdict != PartitionVerdict::kPinned &&
      strategy == ProcessingStrategy::kChained) {
    verdict = PartitionVerdict::kPinned;
    pin_reason = "chained strategy couples queries through shared baskets";
  }

  // Passes A-E read and mutate the routing state; registration is
  // serialised against concurrent producers.
  std::lock_guard<std::mutex> routes_lock(routes_mu_);

  // --- pass A: realizability against routes and internal (query-produced)
  // streams. Demotions to pinned restart the scan so pinned rules apply to
  // every input; at most one restart happens (pinned is terminal).
  int home = -1;
  bool rescan = true;
  while (rescan) {
    rescan = false;
    home = -1;
    for (size_t i = 0; i < query.inputs.size(); ++i) {
      const sql::ContinuousInput& in = query.inputs[i];
      const std::string key = ToLower(in.basket);
      const analysis::ShardKey* sk =
          i < report->inputs.size() ? &report->inputs[i] : nullptr;
      InternalStream synth;
      const InternalStream* producer = nullptr;
      auto internal_it = internal_.find(key);
      if (internal_it != internal_.end()) {
        producer = &internal_it->second;
      } else if (FindRoute(key) == nullptr) {
        // Unrouted per-shard streams (sys.* telemetry): produced locally on
        // every shard, bypassing the router.
        synth.on_all_shards = true;
        producer = &synth;
      }
      if (producer == nullptr) {
        // Router-fed stream; check only that a prescribed hash key is a
        // real user column (the implicit ts column is stamped per shard
        // after routing, so it cannot place rows).
        if (verdict != PartitionVerdict::kPinned && sk != nullptr &&
            sk->kind == ShardKeyKind::kHash) {
          const RouteState* r = FindRoute(key);
          if (sk->key_column >= r->user_schema.num_fields()) {
            verdict = PartitionVerdict::kPinned;
            pin_reason = "shard key of '" + in.basket +
                         "' is the implicit ts column, which is stamped "
                         "per shard after routing";
            rescan = true;
            break;
          }
        }
        continue;
      }
      if (producer->merged) {
        return Status::FailedPrecondition(
            "stream '" + in.basket +
            "' is merged at the frontend and has no per-shard rows to "
            "consume");
      }
      if (verdict == PartitionVerdict::kPinned) {
        if (producer->on_all_shards) {
          return Status::FailedPrecondition(
              "pinned query '" + name + "' reads '" + in.basket +
              "', which is produced on every shard");
        }
        if (home >= 0 && home != producer->home_shard) {
          return Status::FailedPrecondition(
              "query '" + name + "' reads streams pinned to shards " +
              std::to_string(home) + " and " +
              std::to_string(producer->home_shard));
        }
        home = producer->home_shard;
        continue;
      }
      if (sk == nullptr) continue;
      switch (sk->kind) {
        case ShardKeyKind::kAnySplit:
          // Per-shard production is a disjoint split (all-shards producer)
          // or a single-shard split (pinned producer); both qualify.
          break;
        case ShardKeyKind::kHash:
          if (producer->on_all_shards && !sk->declared) {
            return Status::FailedPrecondition(
                "query '" + name + "' needs '" + in.basket +
                "' co-located on '" + sk->key_name +
                "', but the producing query does not carry that key "
                "through its output");
          }
          // declared => the producer preserves the inherited hash key, so
          // its per-shard output is already co-located; a pinned producer
          // co-locates trivially.
          break;
        case ShardKeyKind::kBroadcast:
          if (producer->on_all_shards) {
            return Status::FailedPrecondition(
                "query '" + name + "' needs every row of '" + in.basket +
                "' on every shard, but it is produced shard-locally");
          }
          // Pinned producer: run the whole query on its home instead.
          verdict = PartitionVerdict::kPinned;
          pin_reason = "input '" + in.basket +
                       "' must be replicated but is produced on shard " +
                       std::to_string(producer->home_shard) + " only";
          rescan = true;
          break;
      }
      if (rescan) break;
    }
  }

  // --- pass B: home selection for pinned placements.
  if (verdict == PartitionVerdict::kPinned && home < 0) {
    for (const sql::ContinuousInput& in : query.inputs) {
      const RouteState* r = FindRoute(in.basket);
      if (r != nullptr && r->route.kind == RouteKind::kSingle) {
        home = r->route.home_shard;
        break;
      }
    }
    if (home < 0) {
      home = static_cast<int>(next_pinned_shard_++ % shards_.size());
    }
  }

  // --- pass C: the routing constraints this query places on its
  // router-fed input streams.
  std::vector<Constraint> constraints;
  for (size_t i = 0; i < query.inputs.size(); ++i) {
    const std::string key = ToLower(query.inputs[i].basket);
    if (FindRoute(key) == nullptr || internal_.count(key) > 0) continue;
    Constraint c;
    c.stream = key;
    if (verdict == PartitionVerdict::kPinned) {
      c.need = Need::kWhole;
    } else {
      if (i >= report->inputs.size()) {
        return Status::Internal("partition report is missing input " +
                                std::to_string(i));
      }
      const analysis::ShardKey& sk = report->inputs[i];
      switch (sk.kind) {
        case ShardKeyKind::kHash:
          c.need = Need::kHash;
          c.hash_column = sk.key_column;
          c.hash_name = sk.key_name;
          break;
        case ShardKeyKind::kAnySplit:
          c.need = Need::kSplit;
          break;
        case ShardKeyKind::kBroadcast:
          c.need = Need::kBroadcast;
          break;
      }
    }
    constraints.push_back(std::move(c));
  }

  // --- pass D: two-phase check-then-commit, so a rejected query leaves
  // every existing route untouched.
  std::map<std::string, RouteClaim> claims;
  for (const Constraint& c : constraints) {
    auto it = claims.find(c.stream);
    if (it == claims.end()) {
      const RouteState* r = FindRoute(c.stream);
      RouteClaim claim;
      claim.route = r->route;
      claim.split_consumers = r->split_consumers;
      claim.hash_consumers = r->hash_consumers;
      claim.broadcast_consumers = r->broadcast_consumers;
      claim.whole_consumers = r->whole_consumers;
      it = claims.emplace(c.stream, std::move(claim)).first;
    }
    DC_ASSIGN_OR_RETURN(StreamRoute next,
                        CheckConstraint(it->second, c, home));
    CommitConstraint(it->second, c, next);
  }
  for (const auto& [stream, claim] : claims) {
    RouteState* r = FindRoute(stream);
    r->route = claim.route;
    r->split_consumers = claim.split_consumers;
    r->hash_consumers = claim.hash_consumers;
    r->broadcast_consumers = claim.broadcast_consumers;
    r->whole_consumers = claim.whole_consumers;
    r->declared_only = false;
  }

  // --- pass E: install per the verdict.
  QueryPlacement placement;
  placement.name = name;
  placement.verdict = verdict;
  placement.report = report;
  const std::string out_name = ToLower(name) + "_out";

  if (verdict == PartitionVerdict::kPinned) {
    placement.home_shard = home;
    DC_ASSIGN_OR_RETURN(
        QueryId local,
        shards_[home]->SubmitContinuousQuery(name, sql, options));
    placement.shard_queries.emplace_back(static_cast<size_t>(home), local);
    placement.placement =
        "shard " + std::to_string(home) +
        (pin_reason.empty() ? " (pinned)" : " (pinned: " + pin_reason + ")");
    // Catalog uniformity: the output stream exists (empty) on every other
    // shard so later DDL and query compiles see identical catalogs.
    auto out_basket = shards_[home]->GetBasket(out_name);
    if (out_basket.ok()) {
      const Schema& out_schema = (*out_basket)->user_schema();
      analysis::PartitionKeyMap home_keys =
          shards_[home]->DeclaredPartitionKeys();
      auto key_it = home_keys.find(out_name);
      for (size_t s = 0; s < shards_.size(); ++s) {
        if (static_cast<int>(s) == home) continue;
        DC_RETURN_NOT_OK(
            shards_[s]->CreateStream(out_name, out_schema).status());
        if (key_it != home_keys.end()) {
          DC_RETURN_NOT_OK(shards_[s]->SetStreamPartitionKey(
              out_name, out_schema.field(key_it->second).name));
        }
      }
    }
    InternalStream produced;
    produced.home_shard = home;
    internal_[out_name] = produced;
  } else if (verdict == PartitionVerdict::kNeedsFinalMerge) {
    DC_CHECK(report->partial_plan != nullptr);
    DC_CHECK(report->merge_plan != nullptr);
    const Schema partial_schema = report->partial_plan->output_schema();
    for (size_t s = 0; s < shards_.size(); ++s) {
      sql::CompiledQuery partial;
      partial.plan = report->partial_plan;
      partial.output_schema = partial_schema;
      partial.continuous = true;
      partial.inputs = query.inputs;
      partial.window = query.window;
      partial.threshold = query.threshold;
      partial.sql_text = "/* partial of " + name + " */ " + sql;
      DC_ASSIGN_OR_RETURN(QueryId local,
                          shards_[s]->SubmitCompiledQuery(
                              name + "__partial", std::move(partial), options));
      placement.shard_queries.emplace_back(s, local);
    }
    // Frontend: every shard's partial rows land in `<name>__partials`, and
    // the merge plan runs over that stream as an ordinary continuous query.
    // When the partials carry their own ts column it doubles as the basket
    // ts; otherwise the basket appends one.
    Schema partials_user = partial_schema;
    if (Basket::HasTsColumn(partial_schema)) {
      Schema stripped;
      for (size_t f = 0; f + 1 < partial_schema.num_fields(); ++f) {
        stripped.AddField(partial_schema.field(f));
      }
      partials_user = std::move(stripped);
    }
    DC_ASSIGN_OR_RETURN(
        BasketPtr partials,
        frontend_->CreateStream(ToLower(name) + "__partials", partials_user));
    sql::CompiledQuery merge;
    merge.plan = report->merge_plan;
    merge.output_schema = report->merge_plan->output_schema();
    merge.continuous = true;
    merge.inputs.push_back(sql::ContinuousInput{
        partials->name(), kPartialsBinding, partials->schema(),
        nullptr});
    merge.sql_text = "/* merge of " + name + " */ " + sql;
    // The shards append straight into the partials basket, so the merge
    // must read that basket itself, not a private replica or chain link.
    QueryOptions merge_options = options;
    merge_options.strategy = ProcessingStrategy::kSharedBaskets;
    DC_ASSIGN_OR_RETURN(
        placement.frontend_query,
        frontend_->SubmitCompiledQuery(name, std::move(merge), merge_options));
    for (const auto& [s, local] : placement.shard_queries) {
      DC_RETURN_NOT_OK(shards_[s]->Subscribe(
          local, std::make_shared<ForwardingSink>(partials)));
    }
    placement.merged = true;
    placement.placement = "all " + std::to_string(shards_.size()) +
                          " shards (partials) + frontend merge (" +
                          analysis::MergeKindName(report->merge) + ")";
    // The merged result exists only at the frontend; per-shard catalogs
    // hold <name>__partial_out, a valid per-shard (all-shards) stream.
    InternalStream merged;
    merged.merged = true;
    internal_[out_name] = merged;
    InternalStream partial_out;
    partial_out.on_all_shards = true;
    internal_[ToLower(name) + "__partial_out"] = partial_out;
  } else {
    // Partitionable / needs-broadcast: the query runs whole on every shard
    // (broadcast inputs were routed kBroadcast above; static broadcast
    // relations are replicated by DDL fan-out).
    for (size_t s = 0; s < shards_.size(); ++s) {
      DC_ASSIGN_OR_RETURN(QueryId local,
                          shards_[s]->SubmitContinuousQuery(name, sql, options));
      placement.shard_queries.emplace_back(s, local);
    }
    placement.placement =
        "all " + std::to_string(shards_.size()) + " shards (" +
        (verdict == PartitionVerdict::kNeedsBroadcast ? "broadcast inputs, "
                                                      : "") +
        "concat)";
    InternalStream produced;
    produced.on_all_shards = true;
    internal_[out_name] = produced;
  }

  for (const auto& [s, local] : placement.shard_queries) {
    shards_[s]->SetQueryPlacement(local, placement.placement);
  }
  placements_.push_back(std::move(placement));
  return placements_.size() - 1;
}

Status ShardedEngine::Subscribe(QueryId id, std::shared_ptr<ResultSink> sink) {
  if (id >= placements_.size()) {
    return Status::NotFound("no query with id " + std::to_string(id));
  }
  const QueryPlacement& placement = placements_[id];
  if (placement.merged) {
    return frontend_->Subscribe(placement.frontend_query, std::move(sink));
  }
  // Sinks are thread-safe by contract, so one sink may fan in from every
  // placed shard's emitter.
  for (const auto& [s, local] : placement.shard_queries) {
    DC_RETURN_NOT_OK(shards_[s]->Subscribe(local, sink));
  }
  return Status::OK();
}

Result<const ShardedEngine::QueryPlacement*> ShardedEngine::GetPlacement(
    QueryId id) const {
  if (id >= placements_.size()) {
    return Status::NotFound("no query with id " + std::to_string(id));
  }
  return &placements_[id];
}

// ---------------------------------------------------------------------------
// Execution control
// ---------------------------------------------------------------------------

int64_t ShardedEngine::Drain(int64_t max_rounds) {
  int64_t total = 0;
  for (int64_t round = 0; round < max_rounds; ++round) {
    // Shards first, to quiescence, so every shard's partials for this round
    // sit in the partials streams before a merge factory fires — one
    // frontend fire then merges the complete round. Cascaded nets (queries
    // over query outputs) settle across rounds.
    int64_t fired = 0;
    for (auto& shard : shards_) fired += shard->Drain();
    fired += frontend_->Drain();
    total += fired;
    if (fired == 0) break;
  }
  return total;
}

Status ShardedEngine::Start(size_t threads_per_shard) {
  for (auto& shard : shards_) {
    DC_RETURN_NOT_OK(shard->Start(threads_per_shard));
  }
  return frontend_->Start(1);
}

void ShardedEngine::Stop() {
  // Shards first: once their emitters stop, no new partials arrive and the
  // frontend engine can stop without racing appends.
  for (auto& shard : shards_) shard->Stop();
  frontend_->Stop();
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

std::string ShardedEngine::ShardsReport() const {
  std::string out =
      "shards: " + std::to_string(shards_.size()) + "\n";
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Engine& e = *shards_[s];
    out += "  shard " + std::to_string(s) +
           ": queries=" + std::to_string(e.num_queries()) +
           " ingested=" + std::to_string(e.tuples_ingested()) +
           " firings=" + std::to_string(e.scheduler().total_firings()) +
           " shed=" + std::to_string(e.total_shed()) +
           " routed=" + std::to_string(routed_[s].value()) + "\n";
  }
  out += "  frontend: queries=" + std::to_string(frontend_->num_queries()) +
         " firings=" +
         std::to_string(frontend_->scheduler().total_firings()) + "\n";
  out += "broadcast tuples: " + std::to_string(broadcast_tuples()) + "\n";
  out += "routes:\n";
  std::lock_guard<std::mutex> lock(routes_mu_);
  for (const auto& [stream, state] : routes_) {
    out += "  " + stream + ": " + RouteKindName(state.route.kind);
    if (state.route.kind == RouteKind::kHash) {
      out += "(" + state.route.key_name + ")";
    } else if (state.route.kind == RouteKind::kSingle) {
      out += "(shard " + std::to_string(state.route.home_shard) + ")";
    }
    out += "  [consumers: split=" + std::to_string(state.split_consumers) +
           " hash=" + std::to_string(state.hash_consumers) +
           " broadcast=" + std::to_string(state.broadcast_consumers) +
           " whole=" + std::to_string(state.whole_consumers) + "]\n";
  }
  out += "queries:\n";
  for (size_t q = 0; q < placements_.size(); ++q) {
    const QueryPlacement& p = placements_[q];
    out += "  q" + std::to_string(q) + " '" + p.name + "': " +
           analysis::PartitionVerdictName(p.verdict) + " -> " + p.placement +
           "\n";
  }
  return out;
}

}  // namespace datacell
