#include "core/engine.h"

#include <algorithm>
#include <set>
#include <string_view>

#include "analysis/plan_analyzer.h"
#include "common/check.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "core/engine_metrics.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace datacell {

namespace {

/// One `\stats` section line: ` key=value` for every declared series whose
/// first label key is `scope` ("" = unlabelled) and that has a stats key,
/// for the instance labelled `label_value`. A histogram renders, only when
/// it exists, as ` key=count (p50=.. p99=.. mean=.. max=.. us)`.
std::string StatFields(const MetricsSnapshotData& snap, std::string_view scope,
                       const std::string& label_value) {
  auto us = [](double v) {
    return std::to_string(static_cast<int64_t>(v + 0.5));
  };
  std::string out;
  for (const MetricSeries* s : series::kAll) {
    const char* first_key = s->label_keys[0];
    if (s->stat_key == nullptr ||
        std::string_view(first_key == nullptr ? "" : first_key) != scope) {
      continue;
    }
    const std::string key = std::string(" ") + s->stat_key + "=";
    if (s->kind != MetricKind::kHistogram) {
      const ScalarSnapshot* v = s->kind == MetricKind::kCounter
                                    ? snap.FindCounter(s->name, label_value)
                                    : snap.FindGauge(s->name, label_value);
      // A labelled series its object does not export (a query without a
      // window has no late count) prints nothing.
      if (v == nullptr && !scope.empty()) continue;
      out += key + std::to_string(v == nullptr ? 0 : v->value);
      continue;
    }
    const HistogramSnapshot* h = snap.FindHistogram(s->name, label_value);
    if (h == nullptr) continue;
    out += key + std::to_string(h->count);
    if (h->count > 0) {
      out += " (p50=" + us(h->Percentile(0.5)) + " p99=" +
             us(h->Percentile(0.99)) + " mean=" + us(h->Mean()) +
             " max=" + std::to_string(h->max) + " us)";
    }
  }
  return out;
}

}  // namespace

Engine::Engine(EngineOptions options)
    : options_(options),
      scheduler_(options.scheduling_policy),
      profile_queries_(options.profile_queries) {
  if (options_.use_wall_clock) {
    owned_clock_ = std::make_unique<WallClock>();
    clock_ = owned_clock_.get();
  } else {
    auto sim = std::make_unique<SimulatedClock>();
    sim_clock_ = sim.get();
    owned_clock_ = std::move(sim);
    clock_ = owned_clock_.get();
  }
  if (kTraceCompiled && options_.trace_capacity > 0) {
    trace_ = std::make_unique<TraceRing>(options_.trace_capacity);
  }
  scheduler_.SetTrace(trace_.get(), clock_);
  scheduler_.SetIdleFallbackUs(options_.idle_tick_us);
  metrics_.SetCollector(
      [this](MetricsSnapshotData& out) { CollectMetrics(out); });
  wake_hub_ = std::make_shared<WakeHub>();
  wake_hub_->scheduler = &scheduler_;
  // Last: the system streams route through the fully initialized engine.
  if (options_.monitor_tick_us > 0) SetUpMonitor();
}

void Engine::WakeHub::Notify() {
  std::lock_guard<std::mutex> lock(mu);
  DC_LOCK_ORDER(&mu, "wake_hub", "wake_hub");
  if (scheduler != nullptr) scheduler->NotifyWork();
}

void Engine::WakeHub::Disarm() {
  std::lock_guard<std::mutex> lock(mu);
  DC_LOCK_ORDER(&mu, "wake_hub", "wake_hub");
  scheduler = nullptr;
}

Engine::~Engine() {
  Stop();
  // Cut producers off from the dying scheduler. Channels are NOT touched:
  // an attached channel may already be destroyed (it is caller-owned, with
  // no lifetime tie to the engine), and its callback only reaches the
  // disarmed hub anyway.
  wake_hub_->Disarm();
  for (const BasketPtr& basket : wired_baskets_) {
    basket->SetWakeCallback(nullptr);  // drop the dead-weight hub reference
    basket->SetTrace(nullptr, nullptr);  // ring and clock die with the engine
  }
}

void Engine::WireBasketWake(const BasketPtr& basket) {
  basket->SetWakeCallback([hub = wake_hub_] { hub->Notify(); });
  basket->SetTrace(trace_.get(), clock_);
  wired_baskets_.push_back(basket);
}

void Engine::UnwireBasket(const BasketPtr& basket) {
  basket->SetWakeCallback(nullptr);
  basket->SetTrace(nullptr, nullptr);
  wired_baskets_.erase(
      std::remove(wired_baskets_.begin(), wired_baskets_.end(), basket),
      wired_baskets_.end());
}

Engine::StreamInfo* Engine::FindStream(const std::string& name) {
  auto it = streams_.find(ToLower(name));
  return it == streams_.end() ? nullptr : &it->second;
}

Result<BasketPtr> Engine::CreateStream(const std::string& name,
                                       const Schema& user_schema) {
  // The sys. namespace belongs to the engine's own telemetry streams.
  if (ToLower(name).rfind("sys.", 0) == 0) {
    return Status::InvalidArgument(
        "the 'sys.' stream namespace is reserved for system telemetry");
  }
  return CreateStreamInternal(name, user_schema, /*system=*/false);
}

Result<BasketPtr> Engine::CreateStreamInternal(const std::string& name,
                                               const Schema& user_schema,
                                               bool system) {
  if (Basket::HasTsColumn(user_schema)) {
    return Status::InvalidArgument(
        "the ts column is implicit; do not declare it");
  }
  for (const Field& f : user_schema.fields()) {
    if (EqualsIgnoreCase(f.name, Basket::kTsColumnName)) {
      return Status::InvalidArgument(
          "'ts' is reserved for the implicit timestamp column");
    }
  }
  TablePtr table = Basket::MakeBasketTable(name, user_schema);
  DC_RETURN_NOT_OK(catalog_.RegisterRelation(table, RelationKind::kBasket));
  auto basket = std::make_shared<Basket>(table);
  if (system) {
    // Telemetry retention: an unconsumed system stream keeps only the most
    // recent monitor_history rows instead of growing with uptime.
    basket->SetCapacity(options_.monitor_history,
                        Basket::DropPolicy::kDropOldest);
  } else if (options_.max_basket_tuples > 0) {
    basket->SetCapacity(options_.max_basket_tuples, options_.drop_policy);
  }
  WireBasketWake(basket);
  StreamInfo info;
  info.base = basket;
  info.user_schema = user_schema;
  streams_[ToLower(name)] = std::move(info);
  return basket;
}

void Engine::SetUpMonitor() {
  // The reserved telemetry streams are ordinary catalog baskets — one-time
  // SELECTs inspect them, continuous queries compose over them — created
  // here so their names exist before any user query tries to read them.
  DC_CHECK(CreateStreamInternal(MonitorReceptor::kTransitionsStream,
                                MonitorReceptor::TransitionsSchema(),
                                /*system=*/true)
               .ok());
  DC_CHECK(CreateStreamInternal(MonitorReceptor::kBasketsStream,
                                MonitorReceptor::BasketsSchema(),
                                /*system=*/true)
               .ok());
  DC_CHECK(CreateStreamInternal(MonitorReceptor::kQueriesStream,
                                MonitorReceptor::QueriesSchema(),
                                /*system=*/true)
               .ok());
  monitor_ = std::make_shared<MonitorReceptor>(
      "monitor",
      [this] { return MetricsSnapshot(); },
      [this](const std::string& stream, ColumnBatch&& batch) {
        return IngestColumns(stream, std::move(batch));
      },
      clock_, options_.monitor_tick_us, options_.shard_index);
  scheduler_.AddTransition(monitor_);
}

Result<BasketPtr> Engine::GetBasket(const std::string& name) const {
  auto it = streams_.find(ToLower(name));
  if (it == streams_.end()) {
    return Status::NotFound("unknown stream '" + name + "'");
  }
  return it->second.base;
}

Status Engine::SetStreamPartitionKey(const std::string& name,
                                     const std::string& column) {
  StreamInfo* stream = FindStream(name);
  if (stream == nullptr) {
    return Status::NotFound("unknown stream '" + name + "'");
  }
  auto idx = stream->user_schema.IndexOf(column);
  if (!idx.has_value()) {
    return Status::NotFound("stream '" + name + "' has no column '" + column +
                            "' to partition by");
  }
  stream->partition_key = *idx;
  return Status::OK();
}

analysis::PartitionKeyMap Engine::DeclaredPartitionKeys() const {
  analysis::PartitionKeyMap keys;
  for (const auto& [key, stream] : streams_) {
    if (stream.partition_key.has_value()) keys[key] = *stream.partition_key;
  }
  return keys;
}

Status Engine::SetStreamCardinality(const std::string& name,
                                    const std::string& column,
                                    int64_t cardinality) {
  StreamInfo* stream = FindStream(name);
  if (stream == nullptr) {
    return Status::NotFound("unknown stream '" + name + "'");
  }
  auto idx = stream->user_schema.IndexOf(column);
  if (!idx.has_value()) {
    return Status::NotFound("stream '" + name + "' has no column '" + column +
                            "' to declare a cardinality for");
  }
  if (cardinality <= 0) {
    return Status::InvalidArgument("cardinality for '" + name + "." + column +
                                   "' must be a positive row count");
  }
  stream->cardinality[*idx] = cardinality;
  return Status::OK();
}

analysis::CardinalityMap Engine::DeclaredCardinalities() const {
  analysis::CardinalityMap hints;
  for (const auto& [key, stream] : streams_) {
    if (!stream.cardinality.empty()) hints[key] = stream.cardinality;
  }
  return hints;
}

analysis::StateAnalyzerOptions Engine::StateOptionsFor(
    const sql::CompiledQuery& query) const {
  analysis::StateAnalyzerOptions sopts;
  sopts.string_bytes = options_.state_string_bytes;
  for (const sql::ContinuousInput& in : query.inputs) {
    auto it = streams_.find(ToLower(in.basket));
    if (it == streams_.end()) continue;
    sopts.basket_capacity[ToLower(in.basket)] = it->second.base->capacity();
    sopts.basket_readers[ToLower(in.basket)] = it->second.base->num_readers();
  }
  auto bindings = ResolveStaticBindings(query);
  if (bindings.ok()) {
    for (const auto& [rel, table] : *bindings) {
      sopts.static_rows[ToLower(rel)] =
          static_cast<int64_t>(table->num_rows());
    }
  }
  return sopts;
}

int64_t Engine::TotalStateBoundBytes(bool* any_unbounded) const {
  int64_t total = 0;
  if (any_unbounded != nullptr) *any_unbounded = false;
  for (const QueryInfo& q : queries_) {
    if (q.removed || q.state == nullptr) continue;
    if (q.state->total.kind == analysis::StateBoundKind::kUnbounded &&
        any_unbounded != nullptr) {
      *any_unbounded = true;
    }
    if (q.state->total.numeric()) total += q.state->total.bytes;
  }
  return total;
}

analysis::PartitionVerdict Engine::EffectivePartitionVerdict(
    const QueryInfo& q, std::string* reason) const {
  auto pinned = [&reason](const std::string& why) {
    if (reason != nullptr) *reason = why;
    return analysis::PartitionVerdict::kPinned;
  };
  if (q.partition == nullptr || q.factory == nullptr) {
    return pinned("no partition report attached");
  }
  if (q.partition->verdict == analysis::PartitionVerdict::kPinned) {
    return pinned(q.partition->pinned_reason);
  }
  if (q.factory->strategy() == ProcessingStrategy::kChained) {
    return pinned(
        "chained strategy: the query forwards non-matching tuples to the "
        "next query's basket, which a shard split would sever");
  }
  for (const BasketPtr& b : q.factory->input_baskets()) {
    if (b != nullptr && b->num_readers() > 1) {
      return pinned("input basket '" + b->name() +
                    "' has multiple readers (the N004 stealing shape); "
                    "splitting it would desynchronize their watermarks");
    }
  }
  if (reason != nullptr) reason->clear();
  return q.partition->verdict;
}

template <typename AppendFn>
Status Engine::ForEachIngestTarget(const StreamInfo& s, AppendFn&& append) {
  if (s.chain_head != nullptr) return append(*s.chain_head, /*sole=*/true);
  if (s.replicas.empty()) {
    // Shared consumers, or no consumer yet (the basket buffers and remains
    // inspectable by one-time queries, §2.6).
    return append(*s.base, /*sole=*/true);
  }
  for (const BasketPtr& replica : s.replicas) {
    DC_RETURN_NOT_OK(append(*replica, /*sole=*/false));
  }
  if (s.shared_used) DC_RETURN_NOT_OK(append(*s.base, /*sole=*/false));
  return Status::OK();
}

template <typename AppendFn>
Status Engine::Route(const std::string& name, size_t num_rows,
                     AppendFn&& append) {
  StreamInfo* stream = FindStream(name);
  if (stream == nullptr) {
    return Status::NotFound("unknown stream '" + name + "'");
  }
  Timestamp ts = clock_->Now();
  DC_RETURN_NOT_OK(ForEachIngestTarget(
      *stream, [&](Basket& b, bool sole) { return append(b, sole, ts); }));
  tuples_ingested_.fetch_add(static_cast<int64_t>(num_rows),
                             std::memory_order_relaxed);
  return Status::OK();
}

Status Engine::Ingest(const std::string& name, const Row& values) {
  return IngestBatch(name, {values});
}

Status Engine::IngestBatch(const std::string& name,
                           const std::vector<Row>& rows) {
  StreamInfo* stream = FindStream(name);
  if (stream == nullptr) {
    return Status::NotFound("unknown stream '" + name + "'");
  }
  ColumnBatch batch(stream->user_schema);
  DC_RETURN_NOT_OK(batch.AppendRows(rows));
  return IngestColumns(name, std::move(batch));
}

Status Engine::IngestColumns(const std::string& name, ColumnBatch&& batch) {
  DC_RETURN_NOT_OK(Route(name, batch.num_rows(),
                         [&batch](Basket& b, bool sole, Timestamp ts) {
                           // Fan-out: each private replica needs its own
                           // copy of the columns.
                           return sole ? b.AppendColumns(std::move(batch), ts)
                                       : b.AppendColumnsCopy(batch, ts);
                         }));
  // After a fan-out copy, mirror the move path's contract: the batch returns
  // empty (capacity kept) so receptors can refill it unconditionally.
  batch.Clear();
  return Status::OK();
}

Status Engine::IngestTable(const std::string& name, const Table& batch) {
  return Route(name, batch.num_rows(),
               [&batch](Basket& b, bool, Timestamp ts) {
                 return b.AppendTable(batch, ts);
               });
}

Result<Receptor*> Engine::AttachReceptor(const std::string& name,
                                         Channel* channel) {
  StreamInfo* stream = FindStream(name);
  if (stream == nullptr) {
    return Status::NotFound("unknown stream '" + name + "'");
  }
  std::string stream_name = ToLower(name);
  // Columnar delivery: IngestColumns re-stamps with the engine clock
  // (receptors are the entry point, so arrival time is delivery time) and
  // swaps the batch's buffers into the target basket.
  Receptor::DeliverColumnsFn deliver = [this, stream_name](ColumnBatch&& batch) {
    return IngestColumns(stream_name, std::move(batch));
  };
  auto receptor = std::make_shared<Receptor>(
      "receptor_" + stream_name + "_" + std::to_string(stream->receptors.size()),
      channel, stream->user_schema, deliver, clock_, options_.receptor_batch);
  stream->receptors.push_back(receptor.get());
  receptors_.push_back(receptor);
  // A line arriving on an idle channel must wake the scheduler, or the
  // receptor would only fire on the next fallback tick. The callback holds
  // the wake hub, not the engine: either object may die first.
  channel->SetWakeCallback([hub = wake_hub_] { hub->Notify(); });
  scheduler_.AddTransition(receptor);
  return receptor.get();
}

Result<PlanBindings> Engine::ResolveStaticBindings(
    const sql::CompiledQuery& query) const {
  PlanBindings bindings;
  std::vector<std::string> relations = query.plan->InputRelations();
  for (const std::string& rel : relations) {
    bool is_stream_input = false;
    for (const sql::ContinuousInput& in : query.inputs) {
      if (rel == in.bind_name) {
        is_stream_input = true;
        break;
      }
    }
    if (is_stream_input) continue;
    DC_ASSIGN_OR_RETURN(TablePtr table, catalog_.Get(rel));
    // Live binding: the factory sees the table's current content on every
    // execution — "predicates referring to objects elsewhere in the
    // database" (§2.6).
    bindings[rel] = table;
  }
  return bindings;
}

Result<BasketPtr> Engine::MakePrivateBasket(const std::string& stream,
                                            const std::string& suffix) {
  StreamInfo* info = FindStream(stream);
  if (info == nullptr) {
    return Status::NotFound("unknown stream '" + stream + "'");
  }
  TablePtr table =
      Basket::MakeBasketTable(ToLower(stream) + suffix, info->user_schema);
  auto basket = std::make_shared<Basket>(table);
  if (options_.max_basket_tuples > 0) {
    basket->SetCapacity(options_.max_basket_tuples, options_.drop_policy);
  }
  WireBasketWake(basket);
  return basket;
}

Result<sql::CompiledQuery> Engine::CompileContinuous(
    const std::string& sql) const {
  DC_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseStatement(sql));
  if (stmt.kind != sql::Statement::Kind::kSelect) {
    return Status::InvalidArgument("continuous queries must be SELECTs");
  }
  sql::Planner planner(&catalog_);
  DC_ASSIGN_OR_RETURN(sql::CompiledQuery query,
                      planner.CompileSelect(*stmt.select));
  if (!query.continuous) {
    return Status::InvalidArgument(
        "not a continuous query: FROM must contain a basket expression "
        "[select ... from <basket>]");
  }
  query.sql_text = sql;
  return query;
}

Result<QueryId> Engine::SubmitContinuousQuery(const std::string& name,
                                              const std::string& sql,
                                              QueryOptions options) {
  DC_ASSIGN_OR_RETURN(sql::CompiledQuery query, CompileContinuous(sql));
  return SubmitCompiledQuery(name, std::move(query), options);
}

Result<QueryId> Engine::SubmitCompiledQuery(const std::string& name,
                                            sql::CompiledQuery query,
                                            QueryOptions options) {
  if (!query.continuous) {
    return Status::InvalidArgument("not a continuous query");
  }
  const std::string sql = query.sql_text;

  // Registration gate: run the static plan analyzer before any output
  // stream or basket plumbing is created, so a rejected query leaves no
  // state behind. Errors that used to surface as fire-time TypeErrors (or
  // aborts) are reported here with source positions instead.
  {
    analysis::AnalysisReport report = analysis::AnalyzePlan(*query.plan);
    for (const sql::ContinuousInput& in : query.inputs) {
      if (in.consume_predicate != nullptr) {
        analysis::CheckPredicate(*in.consume_predicate, in.basket_schema,
                                 "consume predicate of '" + in.basket + "'",
                                 &report);
      }
    }
    DC_RETURN_NOT_OK(report.ToStatus());
  }

  // Resolved before any plumbing exists: a plan over an unknown static
  // relation (and the pass-4 gate below, which prices join build sides from
  // these tables) must reject without leaving an output stream behind.
  DC_ASSIGN_OR_RETURN(PlanBindings static_bindings,
                      ResolveStaticBindings(query));

  // Pass 4: state-bound analysis, and — when the admission caps are set —
  // the S007/S008 gate. Runs before CreateStream for the same no-state-left
  // contract as pass 1: a rejected query leaves the engine untouched.
  auto state = std::make_shared<analysis::StateReport>();
  {
    analysis::AnalysisReport report;
    analysis::StateAnalyzerOptions sopts;
    sopts.string_bytes = options_.state_string_bytes;
    for (const sql::ContinuousInput& in : query.inputs) {
      auto it = streams_.find(ToLower(in.basket));
      if (it == streams_.end()) {
        return Status::NotFound("unknown stream '" + in.basket + "'");
      }
      const std::string key = ToLower(in.basket);
      sopts.basket_capacity[key] = it->second.base->capacity();
      sopts.basket_readers[key] = it->second.base->num_readers();
    }
    for (const auto& [rel, table] : static_bindings) {
      sopts.static_rows[ToLower(rel)] =
          static_cast<int64_t>(table->num_rows());
    }
    DC_ASSIGN_OR_RETURN(
        *state, analysis::AnalyzeStateBounds(query, DeclaredCardinalities(),
                                             sopts, &report));
    const analysis::Severity gate_severity =
        options_.state_bound_policy == StateBoundPolicy::kReject
            ? analysis::Severity::kError
            : analysis::Severity::kWarning;
    const bool unbounded =
        state->total.kind == analysis::StateBoundKind::kUnbounded;
    if (options_.max_query_state_bytes > 0 &&
        (unbounded ||
         (state->total.numeric() &&
          state->total.bytes >
              static_cast<int64_t>(options_.max_query_state_bytes)))) {
      report.Add(analysis::DiagCode::kStateBoundExceeded, gate_severity,
                 "query '" + name + "': state bound " +
                     state->total.ToString() +
                     " exceeds max_query_state_bytes = " +
                     std::to_string(options_.max_query_state_bytes),
                 analysis::FindPlanLoc(*query.plan));
    }
    if (options_.max_engine_state_bytes > 0) {
      bool any_unbounded = false;
      const int64_t live = TotalStateBoundBytes(&any_unbounded);
      const int64_t incoming = state->total.numeric() ? state->total.bytes : 0;
      if (unbounded || any_unbounded ||
          live + incoming >
              static_cast<int64_t>(options_.max_engine_state_bytes)) {
        report.Add(
            analysis::DiagCode::kEngineStateExceeded, gate_severity,
            "query '" + name + "': engine state total " +
                std::to_string(live) + " B + this query's bound " +
                state->total.ToString() + " exceeds max_engine_state_bytes = " +
                std::to_string(options_.max_engine_state_bytes),
            analysis::FindPlanLoc(*query.plan));
      }
    }
    DC_RETURN_NOT_OK(report.ToStatus());
  }

  ProcessingStrategy strategy =
      options.strategy.value_or(options_.default_strategy);
  // A query's output basket is appended to by that query's factory, never
  // routed like ingest, so a private replica or chain link of it would stay
  // empty: a query over another query's output reads that basket itself.
  for (const sql::ContinuousInput& in : query.inputs) {
    const StreamInfo* stream = FindStream(in.basket);
    if (stream != nullptr && stream->query_output) {
      strategy = ProcessingStrategy::kSharedBaskets;
    }
  }
  if (strategy == ProcessingStrategy::kChained && query.inputs.size() != 1) {
    return Status::Unimplemented(
        "the chained strategy supports single-input queries");
  }

  // Output plumbing: basket `<name>_out` registered as a stream so other
  // queries can consume this query's results (a network of queries, §4).
  // When the result already ends with a ts column (`select *` projects the
  // stream's arrival ts last), that column becomes the output basket's
  // implicit timestamp and arrival times are preserved end to end.
  std::string out_name = ToLower(name) + "_out";
  bool output_carries_ts = Basket::HasTsColumn(query.output_schema);
  Schema output_user_schema = query.output_schema;
  if (output_carries_ts) {
    Schema stripped;
    for (size_t i = 0; i + 1 < output_user_schema.num_fields(); ++i) {
      stripped.AddField(output_user_schema.field(i));
    }
    output_user_schema = std::move(stripped);
  }
  DC_ASSIGN_OR_RETURN(BasketPtr output,
                      CreateStream(out_name, output_user_schema));
  // The query's emitter is a permanent reader of its output basket, so the
  // stream is born with a consumer and cannot be dropped.
  FindStream(out_name)->has_consumers = true;
  FindStream(out_name)->query_output = true;

  // Input plumbing per strategy.
  std::vector<BasketPtr> input_baskets;
  struct ChainLink {
    StreamInfo* stream;
    BasketPtr basket;
  };
  std::vector<ChainLink> chain_links;
  for (size_t i = 0; i < query.inputs.size(); ++i) {
    const sql::ContinuousInput& in = query.inputs[i];
    StreamInfo* stream = FindStream(in.basket);
    if (stream == nullptr) {
      return Status::NotFound("unknown stream '" + in.basket + "'");
    }
    switch (strategy) {
      case ProcessingStrategy::kSharedBaskets: {
        if (stream->chain_head != nullptr) {
          // Ingest reaches only the chain head, never a shared reader of
          // the base basket.
          return Status::Unimplemented(
              "cannot mix shared and chained strategies on one stream");
        }
        stream->shared_used = true;
        // §3.2 common-subplan factoring: identical basket expressions share
        // one auxiliary filter transition and its group basket.
        if (options_.factor_common_subplans &&
            in.consume_predicate != nullptr) {
          std::string key = ToLower(in.basket) + "|" +
                            in.consume_predicate->ToString();
          auto group = subplan_groups_.find(key);
          if (group == subplan_groups_.end()) {
            TablePtr group_table = Basket::MakeBasketTable(
                ToLower(in.basket) + "__grp" +
                    std::to_string(subplan_groups_.size()),
                stream->user_schema);
            auto group_basket = std::make_shared<Basket>(group_table);
            WireBasketWake(group_basket);
            auto filter = std::make_shared<SharedFilterTransition>(
                "sharedfilter_" + group_table->name(), stream->base,
                in.consume_predicate, group_basket, clock_);
            shared_filters_.push_back(filter);
            scheduler_.AddTransition(filter);
            group = subplan_groups_.emplace(key, group_basket).first;
          }
          input_baskets.push_back(group->second);
          // The shared transition already applied the predicate; the query
          // factory reads the group basket unconditionally.
          query.inputs[i].consume_predicate = nullptr;
        } else {
          input_baskets.push_back(stream->base);
        }
        break;
      }
      case ProcessingStrategy::kSeparateBaskets: {
        if (stream->chain_head != nullptr) {
          return Status::Unimplemented(
              "cannot mix separate and chained strategies on one stream");
        }
        DC_ASSIGN_OR_RETURN(
            BasketPtr replica,
            MakePrivateBasket(in.basket,
                              "__q" + std::to_string(queries_.size())));
        stream->replicas.push_back(replica);
        input_baskets.push_back(replica);
        break;
      }
      case ProcessingStrategy::kChained: {
        if (!stream->replicas.empty() || stream->shared_used) {
          return Status::Unimplemented(
              "cannot mix chained with other strategies on one stream");
        }
        DC_ASSIGN_OR_RETURN(
            BasketPtr link,
            MakePrivateBasket(in.basket,
                              "__c" + std::to_string(stream->chain.size())));
        if (stream->chain.empty()) {
          stream->chain_head = link;
        } else {
          // The previous tail now forwards its non-matching tuples here.
          stream->chain.back()->SetPassthrough(0, link);
        }
        input_baskets.push_back(link);
        chain_links.push_back(ChainLink{stream, link});
        break;
      }
    }
    stream->has_consumers = true;
  }

  FactoryOptions foptions;
  foptions.strategy = strategy;
  foptions.window_mode = options.window_mode.value_or(options_.window_mode);
  foptions.priority = options.priority;
  // Separate-strategy inputs are engine-created replicas: no other reader
  // exists, so non-matching tuples may be dropped on drain (see
  // FactoryOptions::exclusive_private_inputs).
  foptions.exclusive_private_inputs =
      strategy == ProcessingStrategy::kSeparateBaskets;
  foptions.output_carries_ts = output_carries_ts;
  foptions.fresh_plan_state = options_.fresh_plan_state;
  foptions.state_string_bytes = options_.state_string_bytes;
  DC_ASSIGN_OR_RETURN(
      FactoryPtr factory,
      Factory::Create("factory_" + ToLower(name), std::move(query),
                      std::move(input_baskets), output,
                      std::move(static_bindings), clock_, foptions));
  factory->SetProfiling(profile_queries_);

  for (const ChainLink& link : chain_links) {
    link.stream->chain.push_back(factory);
  }

  auto emitter =
      std::make_shared<Emitter>("emitter_" + ToLower(name), output, clock_);
  // Per-query end-to-end tuple latency, observed at delivery time. Only
  // bound when the query projects the stream's arrival ts through to the
  // output (select *): that is the paper's per-tuple response time. For
  // other queries the output ts is the production stamp and "latency" would
  // be near-zero noise — not worth a per-tuple Observe on the hot path.
  if (output_carries_ts) emitter->TrackLatency();

  scheduler_.AddTransition(factory);
  scheduler_.AddTransition(emitter);

  // Pass 3: partition-safety classification over the final compiled query
  // (after shared-filter predicate hoisting). Advisory — registration never
  // fails on it; the A0xx diagnostics are re-derived by Analyze().
  auto partition = std::make_shared<analysis::PartitionReport>();
  {
    analysis::AnalysisReport scratch;
    auto res = analysis::AnalyzePartitioning(factory->query(),
                                             DeclaredPartitionKeys(), &scratch);
    if (res.ok()) {
      *partition = std::move(*res);
    } else {
      partition->verdict = analysis::PartitionVerdict::kPinned;
      partition->pinned_reason = res.status().message();
    }
  }
  factory->SetPartitionReport(partition);
  factory->SetStateReport(state);
  // Output-stream key inheritance: when the query preserves a shard key
  // into its output, downstream queries over `<name>_out` see it declared.
  if ((partition->verdict == analysis::PartitionVerdict::kPartitionable ||
       partition->verdict == analysis::PartitionVerdict::kNeedsBroadcast) &&
      partition->output_key_column.has_value() &&
      *partition->output_key_column < output_user_schema.num_fields()) {
    // Best-effort: the key column always exists in the output stream when
    // output_key_column is in range, so this cannot realistically fail.
    (void)SetStreamPartitionKey(out_name, partition->output_key_name);
  }

  QueryInfo info;
  info.name = name;
  info.sql = sql;
  info.factory = factory;
  info.output = output;
  info.emitter = emitter;
  info.partition = std::move(partition);
  info.state = std::move(state);
  queries_.push_back(std::move(info));
  return queries_.size() - 1;
}

Status Engine::RemoveContinuousQuery(QueryId id) {
  if (id >= queries_.size()) {
    return Status::NotFound("unknown query id " + std::to_string(id));
  }
  QueryInfo& info = queries_[id];
  if (info.removed) {
    return Status::FailedPrecondition("query '" + info.name +
                                      "' already removed");
  }
  if (scheduler_.running()) {
    return Status::FailedPrecondition(
        "stop the scheduler before removing queries");
  }
  if (info.factory->strategy() == ProcessingStrategy::kChained) {
    return Status::Unimplemented(
        "chained-strategy queries cannot be removed (passthrough links)");
  }
  scheduler_.RemoveTransition(info.factory.get());
  scheduler_.RemoveTransition(info.emitter.get());
  info.factory->DetachReaders();
  info.emitter->DetachReader();
  // Separate strategy: stop replicating into the retired private baskets.
  std::vector<BasketPtr> inputs = info.factory->input_baskets();
  for (auto& [key, stream] : streams_) {
    auto& replicas = stream.replicas;
    replicas.erase(std::remove_if(replicas.begin(), replicas.end(),
                                  [&](const BasketPtr& b) {
                                    for (const BasketPtr& in : inputs) {
                                      if (in == b) {
                                        UnwireBasket(b);
                                        return true;
                                      }
                                    }
                                    return false;
                                  }),
                   replicas.end());
  }
  // A factored subplan group with no remaining readers must retire too, or
  // its filter keeps producing into a basket nobody drains.
  for (auto it = subplan_groups_.begin(); it != subplan_groups_.end();) {
    if (it->second->num_readers() == 0) {
      for (auto ft = shared_filters_.begin(); ft != shared_filters_.end();
           ++ft) {
        if ((*ft)->output() == it->second) {
          scheduler_.RemoveTransition(ft->get());
          shared_filters_.erase(ft);
          break;
        }
      }
      UnwireBasket(it->second);
      it = subplan_groups_.erase(it);
    } else {
      ++it;
    }
  }
  info.removed = true;
  return Status::OK();
}

Status Engine::Subscribe(QueryId id, std::shared_ptr<ResultSink> sink) {
  if (id >= queries_.size()) {
    return Status::NotFound("unknown query id " + std::to_string(id));
  }
  queries_[id].emitter->AddSink(std::move(sink));
  return Status::OK();
}

Result<const Engine::QueryInfo*> Engine::GetQuery(QueryId id) const {
  if (id >= queries_.size()) {
    return Status::NotFound("unknown query id " + std::to_string(id));
  }
  return &queries_[id];
}

Status Engine::ExecuteCreate(const sql::CreateStmt& stmt) {
  Schema schema;
  for (const sql::ColumnDef& def : stmt.columns) {
    schema.AddField(Field{def.name, def.type});
  }
  if (stmt.is_basket) {
    // Validate the partition and cardinality columns before creating
    // anything, so a bad PARTITION BY / WITH clause leaves no stream behind.
    if (!stmt.partition_by.empty() &&
        !schema.IndexOf(stmt.partition_by).has_value()) {
      return Status::NotFound("PARTITION BY column '" + stmt.partition_by +
                              "' is not a column of '" + stmt.name + "'");
    }
    for (const auto& [col, n] : stmt.cardinality_hints) {
      (void)n;
      if (!schema.IndexOf(col).has_value()) {
        return Status::NotFound("cardinality column '" + col +
                                "' is not a column of '" + stmt.name + "'");
      }
    }
    DC_RETURN_NOT_OK(CreateStream(stmt.name, schema).status());
    if (!stmt.partition_by.empty()) {
      DC_RETURN_NOT_OK(SetStreamPartitionKey(stmt.name, stmt.partition_by));
    }
    for (const auto& [col, n] : stmt.cardinality_hints) {
      DC_RETURN_NOT_OK(SetStreamCardinality(stmt.name, col, n));
    }
    return Status::OK();
  }
  return catalog_.CreateRelation(stmt.name, schema, RelationKind::kTable)
      .status();
}

Status Engine::ExecuteInsert(const sql::InsertStmt& stmt) {
  if (const StreamInfo* stream = FindStream(stmt.table)) {
    DC_ASSIGN_OR_RETURN(std::vector<Row> rows,
                        sql::BindInsertRows(stmt, stream->user_schema));
    // A basket takes the statement as one batch with one arrival ts.
    return IngestBatch(stmt.table, rows);
  }
  DC_ASSIGN_OR_RETURN(TablePtr table, catalog_.Get(stmt.table));
  if (scheduler_.running()) {
    return Status::FailedPrecondition(
        "stop the scheduler before inserting into table '" + stmt.table +
        "'");
  }
  DC_ASSIGN_OR_RETURN(std::vector<Row> rows,
                      sql::BindInsertRows(stmt, table->schema()));
  for (const Row& row : rows) DC_RETURN_NOT_OK(table->AppendRow(row));
  return Status::OK();
}

Status Engine::CheckDrop(const sql::DropStmt& stmt) const {
  auto it = streams_.find(ToLower(stmt.name));
  if (it != streams_.end() && it->second.has_consumers) {
    return Status::FailedPrecondition("cannot drop stream '" + stmt.name +
                                      "' with active continuous queries");
  }
  if (!catalog_.Contains(stmt.name)) {
    return Status::NotFound("unknown relation '" + stmt.name + "'");
  }
  return Status::OK();
}

Result<TablePtr> Engine::ExecuteSelect(const sql::SelectStmt& stmt) {
  sql::Planner planner(&catalog_);
  DC_ASSIGN_OR_RETURN(sql::CompiledQuery query, planner.CompileSelect(stmt));
  if (query.continuous) {
    return Status::InvalidArgument(
        "continuous query submitted to the one-time path; use "
        "SubmitContinuousQuery");
  }
  PlanBindings bindings;
  for (const std::string& rel : query.plan->InputRelations()) {
    DC_ASSIGN_OR_RETURN(TablePtr table, catalog_.Get(rel));
    DC_ASSIGN_OR_RETURN(RelationKind kind, catalog_.KindOf(rel));
    if (kind == RelationKind::kBasket) {
      // Inspection semantics (§2.6): outside a basket expression a basket
      // behaves like a temporary table — tuples are not removed.
      auto it = streams_.find(rel);
      if (it != streams_.end()) {
        bindings[rel] = it->second.base->PeekSnapshot();
      } else {
        bindings[rel] = TablePtr(table->Clone());
      }
    } else {
      bindings[rel] = table;
    }
  }
  return ExecutePlan(*query.plan, bindings);
}

Result<TablePtr> Engine::Execute(const sql::Statement& stmt) {
  switch (stmt.kind) {
    case sql::Statement::Kind::kSelect:
      return ExecuteSelect(*stmt.select);
    case sql::Statement::Kind::kCreate:
      DC_RETURN_NOT_OK(ExecuteCreate(*stmt.create));
      break;
    case sql::Statement::Kind::kInsert:
      DC_RETURN_NOT_OK(ExecuteInsert(*stmt.insert));
      break;
    case sql::Statement::Kind::kDrop:
      DC_RETURN_NOT_OK(CheckDrop(*stmt.drop));
      streams_.erase(ToLower(stmt.drop->name));
      DC_RETURN_NOT_OK(catalog_.Drop(stmt.drop->name));
      break;
  }
  return std::make_shared<Table>("", Schema{});
}

Result<TablePtr> Engine::ExecuteSql(const std::string& sql) {
  DC_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseStatement(sql));
  return Execute(stmt);
}

Result<TablePtr> Engine::ExecuteScript(const std::string& script) {
  DC_ASSIGN_OR_RETURN(std::vector<sql::Statement> statements,
                      sql::ParseScript(script));
  TablePtr last = std::make_shared<Table>("", Schema{});
  for (const sql::Statement& stmt : statements) {
    DC_ASSIGN_OR_RETURN(TablePtr result, Execute(stmt));
    if (stmt.kind == sql::Statement::Kind::kSelect) last = std::move(result);
  }
  return last;
}

void Engine::CollectMetrics(MetricsSnapshotData& out) const {
  out.Add(series::kIngestedTuples, {}, tuples_ingested());
  out.Add(series::kSchedulerSweeps, {}, scheduler_.sweeps());
  out.Add(series::kSchedulerFirings, {}, scheduler_.total_firings());
  out.Add(series::kSchedulerErrors, {}, scheduler_.error_count());
  out.Add(series::kSchedulerIdleWaits, {}, scheduler_.idle_waits());
  out.Add(series::kSchedulerWakesNotified, {}, scheduler_.wakes_notified());
  out.Add(series::kSchedulerWakesTimeout, {}, scheduler_.wakes_timeout());
  for (const auto& receptor : receptors_) {
    out.Add(series::kReceptorMalformed, {receptor->name()},
            receptor->malformed_lines());
  }
  for (const TransitionPtr& t : scheduler_.TransitionsSnapshot()) {
    series::AddTransition(out, *t);
  }
  // wired_baskets_ holds every live engine-created basket: stream bases,
  // private replicas, chain links, output baskets and shared subplan group
  // baskets.
  for (const BasketPtr& basket : wired_baskets_) {
    const std::string& b = basket->name();
    out.Add(series::kBasketTuples, {b}, static_cast<int64_t>(basket->size()));
    out.Add(series::kBasketHighWater, {b},
            static_cast<int64_t>(basket->size_high_water()));
    out.Add(series::kBasketBytes, {b},
            static_cast<int64_t>(basket->memory_usage()));
    out.Add(series::kBasketAppended, {b}, basket->total_appended());
    out.Add(series::kBasketConsumed, {b}, basket->total_consumed());
    out.Add(series::kBasketShed, {b}, basket->total_shed());
  }
  // Pass-3 scale-out readiness: queries whose *effective* verdict (static
  // report + live overrides) is partitionable outright, and the total that
  // can fan out at all (everything except pinned).
  int64_t partitionable = 0;
  int64_t shardable = 0;
  for (const QueryInfo& q : queries_) {
    if (q.removed || q.factory == nullptr) continue;
    analysis::PartitionVerdict v = EffectivePartitionVerdict(q);
    if (v == analysis::PartitionVerdict::kPartitionable) ++partitionable;
    if (v != analysis::PartitionVerdict::kPinned) ++shardable;
    const std::string qname = ToLower(q.name);
    if (const Histogram* e2e = q.emitter->latency_us()) {
      out.Add(series::kQueryE2eLatency, {qname}, e2e->Snapshot());
    }
    // Per-step profiler series, labeled {query, step}; the step label
    // carries the execution-order index so same-named steps of one pipeline
    // stay distinct series. Only a profiler that has seen a fire exports,
    // so an engine that never profiles exports nothing here.
    const PipelineProfile& prof = q.factory->profile();
    if (prof.fires() > 0) {
      PipelineProfile::Snapshot snap = prof.Snap();
      out.Add(series::kProfileFires, {qname}, snap.fires);
      out.Add(series::kProfileFireTime, {qname}, snap.fire_time_ns);
      for (size_t i = 0; i < snap.steps.size(); ++i) {
        std::string step = std::to_string(i + 1) + ". " + snap.steps[i].label;
        out.Add(series::kProfileStepTime, {qname, step},
                snap.steps[i].time_ns);
        out.Add(series::kProfileStepRows, {qname, step},
                snap.steps[i].rows_out);
      }
    }
    // Pass-4 state bound (-1 = unbounded, 0 = symbolic-only) next to the
    // factory's live accounting, so a scrape can cross-check soundness.
    int64_t bound = 0;
    if (q.state != nullptr) {
      if (q.state->total.kind == analysis::StateBoundKind::kUnbounded) {
        bound = -1;
      } else if (q.state->total.numeric()) {
        bound = q.state->total.bytes;
      }
    }
    out.Add(series::kQueryStateBound, {qname}, bound);
    out.Add(series::kQueryState, {qname},
            static_cast<int64_t>(q.factory->state_bytes()));
    out.Add(series::kQueryStateHighWater, {qname},
            static_cast<int64_t>(q.factory->state_bytes_high_water()));
    if (const WindowExecutor* w = q.factory->window()) {
      out.Add(series::kWindowLateDropped, {qname}, w->late_dropped());
    }
  }
  out.Add(series::kPartitionableQueries, {}, partitionable);
  out.Add(series::kShardableQueries, {}, shardable);
}

void Engine::SetProfiling(bool on) {
  profile_queries_ = on;
  for (const QueryInfo& q : queries_) {
    if (!q.removed && q.factory != nullptr) q.factory->SetProfiling(on);
  }
}

Result<std::string> Engine::ProfileReport(QueryId id) const {
  DC_ASSIGN_OR_RETURN(const QueryInfo* info, GetQuery(id));
  return info->factory->ProfileReport();
}

std::string Engine::TraceJson() const {
  return trace_ == nullptr ? std::string() : trace_->ToChromeJson();
}

std::string Engine::StatsReport() const {
  MetricsSnapshotData snap = MetricsSnapshot();
  const char* policy = "round-robin";
  if (scheduler_.policy() == SchedulingPolicy::kPriority) policy = "priority";
  if (scheduler_.policy() == SchedulingPolicy::kAdaptive) policy = "adaptive";

  std::string out = "== DataCell engine ==\n";
  out += std::string("engine: policy=") + policy +
         StatFields(snap, "", "") + "\n";
  out += "-- transitions --\n";
  for (const TransitionPtr& t : scheduler_.TransitionsSnapshot()) {
    out += "  [" + std::string(TransitionKindToString(t->kind())) + "] " +
           t->name() + ":" + StatFields(snap, "transition", t->name()) + "\n";
  }
  out += "-- queries (end-to-end tuple latency) --\n";
  for (const QueryInfo& q : queries_) {
    std::string fields = StatFields(snap, "query", ToLower(q.name));
    if (q.removed || fields.empty()) continue;
    out += "  " + q.name + ":" + fields + "\n";
  }
  out += "-- streams --\n";
  for (const auto& [key, stream] : streams_) {
    out += "  " + key + ":" + StatFields(snap, "basket", stream.base->name()) +
           "\n";
  }
  if (!subplan_groups_.empty()) {
    out += "-- shared subplan groups --\n";
    for (const auto& [key, basket] : subplan_groups_) {
      out += "  " + key + ": buffered=" + std::to_string(basket->size()) +
             "\n";
    }
  }
  if (trace_ != nullptr) {
    out += "trace: events=" + std::to_string(trace_->size()) + "/" +
           std::to_string(trace_->capacity()) +
           " recorded=" + std::to_string(trace_->total_recorded()) +
           " dropped=" + std::to_string(trace_->dropped()) + "\n";
  }
  return out;
}

int64_t Engine::total_shed() const {
  int64_t shed = 0;
  for (const auto& [key, stream] : streams_) {
    shed += stream.base->total_shed();
    for (const BasketPtr& replica : stream.replicas) {
      shed += replica->total_shed();
    }
    if (stream.chain_head != nullptr) shed += stream.chain_head->total_shed();
  }
  return shed;
}

std::string Engine::DumpCatalogSql() const {
  std::string out;
  for (const std::string& name : catalog_.Names()) {
    auto table = catalog_.Get(name);
    auto kind = catalog_.KindOf(name);
    if (!table.ok() || !kind.ok()) continue;
    bool is_basket = *kind == RelationKind::kBasket;
    out += "create ";
    out += is_basket ? "basket " : "table ";
    out += name + " (";
    const Schema& schema = (*table)->schema();
    size_t n = schema.num_fields();
    if (is_basket && n > 0) --n;  // the implicit ts column is not declared
    for (size_t i = 0; i < n; ++i) {
      if (i > 0) out += ", ";
      out += schema.field(i).name;
      out += " ";
      out += DataTypeToString(schema.field(i).type);
    }
    out += ")";
    if (is_basket) {
      auto it = streams_.find(ToLower(name));
      if (it != streams_.end() && it->second.partition_key.has_value() &&
          *it->second.partition_key < n) {
        out += " partition by " + schema.field(*it->second.partition_key).name;
      }
      if (it != streams_.end() && !it->second.cardinality.empty()) {
        out += " with (";
        bool first = true;
        for (const auto& [col, card] : it->second.cardinality) {
          if (col >= n) continue;
          if (!first) out += ", ";
          first = false;
          out += "cardinality(" + schema.field(col).name +
                 ") = " + std::to_string(card);
        }
        out += ")";
      }
    }
    out += ";\n";
  }
  for (const QueryInfo& q : queries_) {
    out += "-- continuous query '" + q.name + "'";
    if (q.removed) out += " (removed)";
    out += ": " + q.sql + "\n";
  }
  return out;
}

analysis::AnalysisReport Engine::Analyze() const {
  analysis::AnalysisReport report;

  // Pass 1 re-run over every live query. Each plan passed this analysis at
  // registration; re-running catches drift since then — most importantly a
  // statically-bound relation dropped from the catalog (P022), which would
  // fail the factory's next fire.
  for (const QueryInfo& q : queries_) {
    if (q.removed || q.factory == nullptr) continue;
    const sql::CompiledQuery& query = q.factory->query();
    analysis::AnalyzePlanNode(*query.plan, &report);
    for (const sql::ContinuousInput& in : query.inputs) {
      if (in.consume_predicate != nullptr) {
        analysis::CheckPredicate(*in.consume_predicate, in.basket_schema,
                                 "consume predicate of '" + in.basket +
                                     "' (query '" + q.name + "')",
                                 &report);
      }
    }
    for (const std::string& rel : query.plan->InputRelations()) {
      bool is_stream_input = false;
      for (const sql::ContinuousInput& in : query.inputs) {
        if (rel == in.bind_name) {
          is_stream_input = true;
          break;
        }
      }
      if (is_stream_input || catalog_.Get(rel).ok()) continue;
      report.Add(analysis::DiagCode::kUnknownRelation,
                 analysis::Severity::kError,
                 "query '" + q.name + "' reads relation '" + rel +
                     "' which is no longer in the catalog",
                 {}, q.name);
    }
  }

  // Pass 2: project the engine onto an abstract Petri-net topology.
  analysis::NetTopology net;
  std::set<const Basket*> output_bases;
  for (const QueryInfo& q : queries_) {
    if (q.output != nullptr) output_bases.insert(q.output.get());
  }
  auto add_place = [&net](const BasketPtr& b, bool external) {
    if (b == nullptr) return;
    analysis::NetPlace p;
    p.name = b->name();
    p.external_feed = external;
    p.num_readers = b->num_readers();
    p.bounded = b->capacity() > 0;
    p.system = b->name().rfind("sys.", 0) == 0;
    net.places.push_back(std::move(p));
  };
  for (const auto& [sname, s] : streams_) {
    // The baskets ingest routes this stream to.
    std::vector<std::string> ingest_targets;
    bool base_is_ingest_target = false;
    Status listed = ForEachIngestTarget(s, [&](Basket& b, bool) {
      ingest_targets.push_back(b.name());
      if (&b == s.base.get()) base_is_ingest_target = true;
      return Status::OK();
    });
    DC_CHECK(listed.ok());
    // Query-output baskets are fed only by their factory; a user stream's
    // ingest targets are externally fed. A base basket ingest routes around
    // (chained/separate strategies) is fed by nothing — external=false keeps
    // it out of the orphan lint.
    bool is_output = output_bases.count(s.base.get()) != 0;
    add_place(s.base, !is_output && base_is_ingest_target);
    for (const BasketPtr& r : s.replicas) add_place(r, !is_output);
    for (size_t i = 0; i < s.chain.size(); ++i) {
      const std::vector<BasketPtr> links = s.chain[i]->input_baskets();
      // Link 0 of the first factory is the chain head (the ingest target);
      // later links are fed by the previous factory's passthrough.
      if (!links.empty()) add_place(links[0], !is_output && i == 0);
    }
    for (Receptor* r : s.receptors) {
      if (r == nullptr) continue;
      analysis::NetTransition t;
      t.name = r->name();
      t.kind = analysis::NetNodeKind::kReceptor;
      t.outputs = ingest_targets;
      net.transitions.push_back(std::move(t));
    }
    if (s.chain.size() >= 2) {
      analysis::NetChain chain;
      chain.stream = sname;
      for (const FactoryPtr& f : s.chain) {
        analysis::ChainLink link;
        link.transition = f->name();
        link.predicate = f->query().inputs[0].consume_predicate;
        chain.links.push_back(std::move(link));
      }
      net.chains.push_back(std::move(chain));
    }
  }
  for (const auto& [key, basket] : subplan_groups_) {
    add_place(basket, /*external=*/false);
  }
  if (monitor_ != nullptr) {
    // The self-observation receptor feeds the sys.* places (which are in
    // `streams_` and were added above, flagged system).
    analysis::NetTransition t;
    t.name = monitor_->name();
    t.kind = analysis::NetNodeKind::kReceptor;
    t.outputs = {MonitorReceptor::kTransitionsStream,
                 MonitorReceptor::kBasketsStream,
                 MonitorReceptor::kQueriesStream};
    net.transitions.push_back(std::move(t));
  }
  for (const auto& filter : shared_filters_) {
    analysis::NetTransition t;
    t.name = filter->name();
    t.kind = analysis::NetNodeKind::kSharedFilter;
    t.inputs.push_back(filter->input()->name());
    t.outputs.push_back(filter->output()->name());
    net.transitions.push_back(std::move(t));
  }
  for (const QueryInfo& q : queries_) {
    if (q.removed || q.factory == nullptr) continue;
    analysis::NetTransition t;
    t.name = q.factory->name();
    t.kind = analysis::NetNodeKind::kFactory;
    for (const BasketPtr& b : q.factory->input_baskets()) {
      t.inputs.push_back(b->name());
    }
    t.outputs.push_back(q.output->name());
    for (const BasketPtr& b : q.factory->passthrough_baskets()) {
      if (b != nullptr) t.outputs.push_back(b->name());
    }
    net.transitions.push_back(std::move(t));
    analysis::NetTransition e;
    e.name = q.emitter->name();
    e.kind = analysis::NetNodeKind::kEmitter;
    e.inputs.push_back(q.output->name());
    net.transitions.push_back(std::move(e));
  }
  analysis::AnalyzeTopology(net, &report);

  // Pass 3: partition-safety (advisory A0xx findings). Recomputed here
  // rather than replayed from registration so verdicts reflect the *current*
  // net: a second query sharing a basket flips num_readers past 1 (the N004
  // shape) and pins both, and declared keys may have changed.
  analysis::PartitionKeyMap declared = DeclaredPartitionKeys();
  for (const QueryInfo& q : queries_) {
    if (q.removed || q.factory == nullptr) continue;
    analysis::AnalysisReport pass3;
    auto res =
        analysis::AnalyzePartitioning(q.factory->query(), declared, &pass3);
    for (analysis::Diagnostic d : pass3.diagnostics()) {
      d.object = d.object.empty() ? ("query '" + q.name + "'")
                                  : ("query '" + q.name + "' " + d.object);
      report.Add(std::move(d));
    }
    if (!res.ok()) continue;
    // Engine-level overrides on top of the static verdict.
    std::string reason;
    if (res->verdict != analysis::PartitionVerdict::kPinned &&
        EffectivePartitionVerdict(q, &reason) ==
            analysis::PartitionVerdict::kPinned) {
      report.Add(analysis::DiagCode::kPinnedQuery, analysis::Severity::kWarning,
                 "query pins a single shard: " + reason, {},
                 "query '" + q.name + "'");
    }
  }

  // Pass 4: state bounds, recomputed against the current catalog (hints may
  // have been declared after registration and static build sides grow).
  {
    analysis::CardinalityMap hints = DeclaredCardinalities();
    for (const QueryInfo& q : queries_) {
      if (q.removed || q.factory == nullptr) continue;
      analysis::AnalysisReport pass4;
      analysis::StateAnalyzerOptions sopts = StateOptionsFor(q.factory->query());
      auto res = analysis::AnalyzeStateBounds(q.factory->query(), hints, sopts,
                                              &pass4);
      for (analysis::Diagnostic d : pass4.diagnostics()) {
        d.object = d.object.empty() ? ("query '" + q.name + "'")
                                    : ("query '" + q.name + "' " + d.object);
        report.Add(std::move(d));
      }
      (void)res;
    }
    bool any_unbounded = false;
    int64_t total = TotalStateBoundBytes(&any_unbounded);
    report.Add(analysis::DiagCode::kStateBoundNote, analysis::Severity::kNote,
               std::string("engine state bound: ") +
                   (any_unbounded ? "unbounded"
                                  : std::to_string(total) +
                                        " B across live queries' numeric "
                                        "bounds"),
               {}, "engine");
  }
  return report;
}

Result<std::string> Engine::ExplainSql(const std::string& sql) const {
  DC_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseStatement(sql));
  if (stmt.kind != sql::Statement::Kind::kSelect) {
    return Status::InvalidArgument("EXPLAIN supports SELECT statements");
  }
  sql::Planner planner(&catalog_);
  DC_ASSIGN_OR_RETURN(sql::CompiledQuery query,
                      planner.CompileSelect(*stmt.select));
  return ExplainMal(*query.plan);
}

}  // namespace datacell
