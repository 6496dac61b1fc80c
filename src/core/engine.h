#ifndef DATACELL_CORE_ENGINE_H_
#define DATACELL_CORE_ENGINE_H_

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adapters/channel.h"
#include "adapters/monitor.h"
#include "adapters/sink.h"
#include "analysis/net_analyzer.h"
#include "analysis/partition_analyzer.h"
#include "analysis/state_analyzer.h"
#include "common/clock.h"
#include "common/metrics_registry.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/emitter.h"
#include "core/factory.h"
#include "core/receptor.h"
#include "core/scheduler.h"
#include "core/shared_filter.h"
#include "sql/planner.h"
#include "storage/catalog.h"

namespace datacell {

/// What the pass-4 admission gate does when a query's state bound is
/// unbounded or exceeds a configured cap.
enum class StateBoundPolicy {
  kReject,  // registration fails with a positioned S007/S008 TypeError
  kWarn,    // registration proceeds; the S-diagnostic is kept advisory
};

/// Engine-wide configuration.
struct EngineOptions {
  /// Strategy applied to continuous queries unless overridden per query.
  ProcessingStrategy default_strategy = ProcessingStrategy::kSharedBaskets;
  /// Window evaluation mode for windowed queries.
  WindowMode window_mode = WindowMode::kAuto;
  SchedulingPolicy scheduling_policy = SchedulingPolicy::kRoundRobin;
  /// §3.2 multi-query optimisation: queries whose basket expressions are
  /// identical (same stream, same predicate) share one auxiliary factory
  /// that evaluates the predicate once and feeds all of them. Applies to
  /// shared-strategy queries.
  bool factor_common_subplans = false;
  /// false => a SimulatedClock the caller advances manually; used by the
  /// deterministic tests and time-window experiments.
  bool use_wall_clock = true;
  /// Receptor ingest batch cap.
  size_t receptor_batch = 4096;
  /// Load shedding: every stream basket (including private replicas and
  /// chain links) holds at most this many tuples; 0 = unbounded. Overload
  /// then sheds by `drop_policy` instead of growing without bound (§1).
  size_t max_basket_tuples = 0;
  Basket::DropPolicy drop_policy = Basket::DropPolicy::kDropOldest;
  /// Intra-factory parallelism: size of the shared kernel thread pool the
  /// engine hands every factory through its ExecContext. 0 (the default)
  /// keeps all kernels scalar — the right choice when the scheduler already
  /// runs one worker per core. Set >0 when few fat queries must each use
  /// the whole machine (morsel-driven parallel selection/join/aggregation).
  size_t kernel_threads = 0;
  /// Minimum input size (values) before a kernel fans out over the pool;
  /// smaller baskets stay on the scalar path, whose latency is lower.
  size_t parallel_threshold = 128 * 1024;
  /// Compile each submitted plan into a fused, type-specialized pipeline at
  /// registration (algebra/specialize.h); plans outside the supported shape
  /// fall back to the tree interpreter per query. Off forces the
  /// interpreter everywhere (the equivalence tests' reference engine).
  bool specialize_plans = true;
  /// Event tracing (common/trace.h): capacity of the bounded trace ring in
  /// events; 0 (the default) disables tracing — no ring is allocated and
  /// the instrumented hot paths pay at most a null-pointer check. Takes
  /// effect only in builds configured with -DDATACELL_TRACE=ON (the option
  /// defaults OFF, which compiles the hooks out entirely). The ring keeps
  /// the most recent `trace_capacity` scheduler sweeps, transition firings
  /// and basket lock waits; export with Engine::TraceJson().
  size_t trace_capacity = 0;
  /// Whether the trace ring starts recording (only meaningful with
  /// trace_capacity > 0). Engine::SetTraceEnabled and the shell's
  /// `\trace on|off` flip it at runtime without losing captured events.
  bool trace_enabled = true;
  /// Self-observation tick (µs): > 0 creates the reserved system streams
  /// (sys.transitions, sys.baskets, sys.queries) and a MonitorReceptor that
  /// samples the metrics registry into them every tick. 0 (default) = no
  /// system streams, no monitor transition.
  int64_t monitor_tick_us = 0;
  /// Retention of the system streams in tuples: each sys.* basket keeps the
  /// most recent `monitor_history` telemetry rows (DropOldest shedding), so
  /// an unconsumed telemetry stream stays bounded.
  size_t monitor_history = 4096;
  /// Start every factory with per-step pipeline profiling on (the shell's
  /// `\profile` / Engine::SetProfiling flip it at runtime). Off by default:
  /// profiling costs one clock pair per pipeline step while enabled.
  bool profile_queries = false;
  /// Threaded scheduler idle fallback tick (µs): how long an idle worker
  /// sleeps without a wake notification before re-checking time-driven
  /// readiness (wall-clock windows, the monitor tick). The default matches
  /// the historical 2 ms; tests raise it to freeze the scheduler between
  /// explicit wakes.
  int64_t idle_tick_us = 2000;
  /// Which shard of a ShardedEngine (core/shard.h) this engine is. Pure
  /// observability: sys.transitions / sys.baskets monitor rows carry it so
  /// per-shard telemetry stays attributable after the union. 0 for
  /// standalone engines.
  int shard_index = 0;
  /// Pass-4 admission control. max_query_state_bytes > 0 gates each
  /// submitted query on its static state bound: unbounded verdicts and
  /// numeric bounds above the cap are rejected (or warned, per
  /// `state_bound_policy`) at SubmitContinuousQuery time, before any output
  /// stream or basket plumbing exists — a rejected query leaves no state
  /// behind. Symbolic-but-bounded verdicts (time windows) pass: they are
  /// bounded in principle and cannot be compared to a byte cap.
  size_t max_query_state_bytes = 0;
  /// > 0 additionally caps the sum of all live queries' numeric bounds; a
  /// submission that would push the engine total (or any unbounded query)
  /// past it is rejected/warned the same way (S008).
  size_t max_engine_state_bytes = 0;
  StateBoundPolicy state_bound_policy = StateBoundPolicy::kReject;
  /// Estimated bytes per string value for pass-4 row widths (fixed-width
  /// columns are priced by their value size). Also used by the factories'
  /// runtime state accounting so static bound and measured occupancy stay
  /// comparable.
  int64_t state_string_bytes = 32;
};

/// Per-query overrides for SubmitContinuousQuery.
struct QueryOptions {
  std::optional<ProcessingStrategy> strategy;
  std::optional<WindowMode> window_mode;
  int priority = 0;
};

using QueryId = size_t;

/// The DataCell engine: the layer between the SQL compiler and the
/// column-store kernel (§2). It owns the catalog, the baskets, the adapter
/// transitions and the scheduler, and exposes the public API a stream
/// application programs against.
///
/// Typical usage (Figure 1's pipeline):
///
///   Engine engine;
///   engine.ExecuteSql("create basket sensors (id int, temp double)");
///   auto q = engine.SubmitContinuousQuery("hot",
///       "select id, temp from [select * from sensors] as s "
///       "where s.temp > 30.0");
///   auto sink = std::make_shared<CollectingSink>();
///   engine.Subscribe(*q, sink);
///   engine.Ingest("sensors", {Value::Int64(1), Value::Double(42.0)});
///   engine.Drain();   // or engine.Start() for the threaded mode
class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- SQL entry points ---------------------------------------------------
  /// Executes one parsed statement: DDL (CREATE TABLE/BASKET, DROP), INSERT,
  /// or a one-time SELECT. Returns the result table for SELECT, an empty
  /// table otherwise. Continuous SELECTs (basket expression in FROM) are
  /// rejected here — submit them with SubmitContinuousQuery. Every SQL entry
  /// point, the sharded frontend's fan-out included, dispatches here.
  Result<TablePtr> Execute(const sql::Statement& stmt);
  /// Parses one statement and executes it.
  Result<TablePtr> ExecuteSql(const std::string& sql);
  /// Parses a ';'-separated script whole (a parse error executes nothing),
  /// then executes its statements in order; stops at the first error.
  /// Returns the result of the last SELECT (or an empty table).
  Result<TablePtr> ExecuteScript(const std::string& script);
  /// The checks a DROP must pass before it changes anything: the relation
  /// exists, and no continuous query consumes it if it is a stream.
  Status CheckDrop(const sql::DropStmt& stmt) const;

  /// Parses and compiles a continuous SELECT (one with a basket expression
  /// in FROM) against this engine's catalog; `sql_text` is set to `sql`.
  Result<sql::CompiledQuery> CompileContinuous(const std::string& sql) const;

  /// Registers a continuous query under `name`. Creates the factory, an
  /// output basket `<name>_out`, and an emitter, wires them into the
  /// scheduler, and applies the processing strategy.
  Result<QueryId> SubmitContinuousQuery(const std::string& name,
                                        const std::string& sql,
                                        QueryOptions options = {});

  /// Registers an already-compiled continuous query — the path the sharded
  /// executor (core/shard.h) uses to install analyzer-synthesized partial
  /// and merge plans, which have no SQL surface form. `query.sql_text`
  /// should be set for introspection; everything downstream of parsing in
  /// SubmitContinuousQuery (plan analysis, strategy plumbing, factory,
  /// emitter, pass-3 classification) runs identically.
  Result<QueryId> SubmitCompiledQuery(const std::string& name,
                                      sql::CompiledQuery query,
                                      QueryOptions options = {});

  /// Attaches a result sink to query `id`'s emitter.
  Status Subscribe(QueryId id, std::shared_ptr<ResultSink> sink);

  /// Retires a continuous query: its factory and emitter stop firing and
  /// their shared-basket watermarks are released so remaining readers trim
  /// normally. The output basket stays registered (dormant) because other
  /// queries may still drain it. Requires the scheduler to be stopped;
  /// chained-strategy queries cannot be removed (their passthrough links
  /// would dangle).
  Status RemoveContinuousQuery(QueryId id);

  // --- stream management ---------------------------------------------------
  /// Creates a stream: a catalog basket with the implicit ts column.
  /// (`CREATE BASKET` via ExecuteSql does the same.)
  Result<BasketPtr> CreateStream(const std::string& name,
                                 const Schema& user_schema);
  /// The basket behind stream `name`.
  Result<BasketPtr> GetBasket(const std::string& name) const;

  /// Declares stream `name`'s partition key (`CREATE BASKET ... PARTITION BY
  /// <column>` routes here). The column must exist in the stream's user
  /// schema. The partition-safety analyzer (pass 3) seeds its lattice from
  /// these declarations; queries registered over output streams inherit the
  /// key the producing query preserves.
  Status SetStreamPartitionKey(const std::string& name,
                               const std::string& column);
  /// basket (lower-cased) -> declared partition column index, for pass 3.
  analysis::PartitionKeyMap DeclaredPartitionKeys() const;

  /// Declares a key-space cardinality hint for stream `name`'s `column`
  /// (`CREATE BASKET ... WITH (cardinality(col) = N)` routes here). The
  /// state-bound analyzer (pass 4) uses it to bound group-by / distinct
  /// state on that column.
  Status SetStreamCardinality(const std::string& name,
                              const std::string& column, int64_t cardinality);
  /// basket (lower-cased) -> column index -> declared cardinality, for
  /// pass 4.
  analysis::CardinalityMap DeclaredCardinalities() const;

  /// Sum of the live queries' numeric state bounds in bytes, plus whether
  /// any live query is unbounded — the engine-wide pass-4 footprint the
  /// max_engine_state_bytes gate and Analyze() report.
  int64_t TotalStateBoundBytes(bool* any_unbounded = nullptr) const;

  /// Appends one tuple (without ts) to stream `name`: a thin builder over
  /// IngestColumns, like IngestBatch.
  Status Ingest(const std::string& name, const Row& values);
  /// Validates every row against the stream schema into a ColumnBatch, then
  /// IngestColumns. A batch with one bad row is rejected whole.
  Status IngestBatch(const std::string& name, const std::vector<Row>& rows);
  /// The routed ingest path: `batch` holds the stream's user columns (no
  /// ts), every tuple is stamped with the current time, and the batch goes
  /// to "the proper baskets" (§2.1) for the strategies in use. With one
  /// target basket its buffers are *swapped* in; the batch comes back empty
  /// but keeps the basket's previous buffer capacity, ready to refill. When
  /// the stream fans out to several baskets (private replicas) the columns
  /// are copied instead. The receptor delivery path.
  Status IngestColumns(const std::string& name, ColumnBatch&& batch);
  /// IngestColumns for a caller-owned table: same routing and stamping,
  /// with one column copy into each target basket (`batch` is not modified).
  Status IngestTable(const std::string& name, const Table& batch);

  /// Attaches a receptor thread-equivalent transition reading CSV tuples
  /// from `channel` into stream `name`. The channel's wake callback holds
  /// only a shared wake hub, never the engine, so the channel may be
  /// destroyed before the engine (or outlive it) — but the caller must stop
  /// scheduling (no Step/Drain/Start) once the channel is gone, since the
  /// receptor still reads from it when fired.
  Result<Receptor*> AttachReceptor(const std::string& name, Channel* channel);

  // --- execution control ----------------------------------------------------
  /// One deterministic scheduler sweep; returns #transitions fired.
  int Step() { return scheduler_.Step(); }
  /// Sweeps until quiescent. Call after Ingest in single-stepped mode.
  int64_t Drain(int64_t max_sweeps = 1000000) {
    return scheduler_.RunUntilQuiescent(max_sweeps);
  }
  /// Starts / stops the threaded scheduler loop. More than one worker fires
  /// transitions concurrently (the paper's multi-threaded architecture);
  /// each transition and each basket is still accessed by one thread at a
  /// time.
  Status Start(size_t num_threads = 1) { return scheduler_.Start(num_threads); }
  void Stop() { scheduler_.Stop(); }

  // --- introspection ---------------------------------------------------------
  Catalog& catalog() { return catalog_; }
  const Clock& clock() const { return *clock_; }
  /// Non-null when constructed with use_wall_clock = false.
  SimulatedClock* simulated_clock() { return sim_clock_; }
  Scheduler& scheduler() { return scheduler_; }
  const Scheduler& scheduler() const { return scheduler_; }

  struct QueryInfo {
    std::string name;
    std::string sql;
    FactoryPtr factory;
    BasketPtr output;
    std::shared_ptr<Emitter> emitter;
    bool removed = false;
    /// Pass-3 partition-safety report computed at registration (static
    /// verdict; live overrides are applied by EffectivePartitionVerdict).
    std::shared_ptr<const analysis::PartitionReport> partition;
    /// Pass-4 state-bound report computed at registration.
    std::shared_ptr<const analysis::StateReport> state;
    /// Human-readable shard placement set by the sharded executor (e.g.
    /// "all shards + merge", "shard 2 (pinned)"); empty for standalone
    /// engines. Surfaced by \shards, \analyze and the /queries endpoint.
    std::string placement;
  };
  /// The query's partition verdict with the engine-level overrides applied
  /// on top of the registration-time report: chained-strategy queries and
  /// queries whose input baskets have multiple readers (the N004 stealing
  /// shape) pin regardless of what the plan alone allows — both shapes
  /// couple queries through shared basket state that a shard split would
  /// tear. `reason` (optional) receives the pin explanation.
  analysis::PartitionVerdict EffectivePartitionVerdict(
      const QueryInfo& q, std::string* reason = nullptr) const;
  Result<const QueryInfo*> GetQuery(QueryId id) const;
  size_t num_queries() const { return queries_.size(); }
  /// Records where the sharded executor placed query `id` (see
  /// QueryInfo::placement). Out-of-range ids are ignored.
  void SetQueryPlacement(QueryId id, std::string placement) {
    if (id < queries_.size()) queries_[id].placement = std::move(placement);
  }
  /// This engine's shard index (EngineOptions::shard_index).
  int shard_index() const { return options_.shard_index; }

  /// Explain: parses and compiles `sql`, returning the MAL-style listing.
  Result<std::string> ExplainSql(const std::string& sql) const;

  /// Static analysis of the registered net: re-runs the plan analyzer over
  /// every live query (pass 1) and the Petri-net dataflow lints (pass 2) —
  /// orphan baskets, dead transitions, transition cycles, multi-reader
  /// stealing, chained-predicate overlap and coverage gaps. Read-only; call
  /// while the scheduler is stopped or between sweeps. Rendered by the
  /// shell's \analyze command and datacell-lint.
  analysis::AnalysisReport Analyze() const;

  /// CREATE statements reproducing the current catalog (baskets keep their
  /// implicit ts column out of the dump), plus the registered continuous
  /// queries as comments. Feed back through ExecuteScript to clone schemas.
  std::string DumpCatalogSql() const;

  int64_t tuples_ingested() const {
    return tuples_ingested_.load(std::memory_order_relaxed);
  }
  /// Number of factored common-subplan groups currently installed.
  size_t num_shared_subplans() const { return subplan_groups_.size(); }

  // --- observability --------------------------------------------------------
  /// The engine's metric registry. Its snapshot reads every series declared
  /// in core/engine_metrics.h from the object that owns the count — the
  /// scheduler, each transition, basket, receptor, factory and emitter —
  /// so live objects export and removed ones do not. See
  /// docs/ARCHITECTURE.md ("Observability").
  MetricsRegistry& metrics() const { return metrics_; }
  /// Typed point-in-time view of every series. Safe to call while the
  /// scheduler runs.
  MetricsSnapshotData MetricsSnapshot() const { return metrics_.Snapshot(); }
  /// Prometheus text exposition of MetricsSnapshot() — scrape or diff it —
  /// restricted to metric names starting with `prefix` when non-empty (the
  /// shell's `\metrics <prefix>`).
  std::string MetricsText(const std::string& prefix = "") const {
    return metrics_.PrometheusText(prefix);
  }

  /// Runtime toggle for every factory's per-step pipeline profiler (see
  /// algebra/profile.h); also the default for queries submitted later.
  /// Counters accumulate across off/on cycles.
  void SetProfiling(bool on);
  bool profiling() const { return profile_queries_; }
  /// The `\profile` report for query `id`: pipeline description plus the
  /// per-step calls/rows/time table.
  Result<std::string> ProfileReport(QueryId id) const;

  /// Runtime trace toggle (no-op without a trace ring); see
  /// EngineOptions::trace_enabled.
  void SetTraceEnabled(bool on) {
    if (trace_ != nullptr) trace_->SetEnabled(on);
  }

  /// The self-observation transition; null unless monitor_tick_us > 0.
  MonitorReceptor* monitor() const { return monitor_.get(); }

  /// Non-null when EngineOptions::trace_capacity > 0 (and tracing compiled).
  TraceRing* trace() const { return trace_.get(); }
  /// Chrome trace_event JSON of the current trace ring content; load in
  /// chrome://tracing or ui.perfetto.dev. Empty trace => valid JSON with an
  /// empty event array. Returns "" when tracing is disabled.
  std::string TraceJson() const;

  /// Multi-line human-readable engine state, built on MetricsSnapshot():
  /// one line per section instance (engine, transitions, queries, streams)
  /// listing every declared series that has a `\stats` key.
  std::string StatsReport() const;
  /// Total tuples shed across all stream baskets.
  int64_t total_shed() const;

 private:
  struct StreamInfo {
    BasketPtr base;                    // the catalog basket
    Schema user_schema;                // without ts
    /// Declared partition key: user-schema column index (== basket column
    /// index; the implicit ts column is appended after the user columns).
    std::optional<size_t> partition_key;
    /// Declared cardinality hints: user-schema column index -> max distinct
    /// values (`WITH (cardinality(col) = N)`), consumed by pass 4.
    std::map<size_t, int64_t> cardinality;
    std::vector<BasketPtr> replicas;   // separate-strategy private baskets
    std::vector<FactoryPtr> chain;     // chained-strategy factories, in order
    BasketPtr chain_head;              // first chained basket (ingest target)
    bool shared_used = false;
    bool has_consumers = false;
    /// A query's `<name>_out`: its factory appends to `base` directly.
    bool query_output = false;
    std::vector<Receptor*> receptors;
  };

  /// The stream routing, written once: calls `append(basket, sole)` for
  /// every basket an ingest into `s` feeds — the chain head under the
  /// chained strategy; each private replica, plus the base when a shared
  /// consumer also reads it, under separate baskets; the base otherwise.
  /// `sole` is true when that basket is the only target, so a batch may be
  /// moved in rather than copied.
  template <typename AppendFn>
  static Status ForEachIngestTarget(const StreamInfo& s, AppendFn&& append);
  /// Stamps one arrival ts, routes `num_rows` tuples into stream `name`'s
  /// baskets (`append(basket, sole, ts)` per target) and counts them in
  /// tuples_ingested. Every ingest entry point ends here.
  template <typename AppendFn>
  Status Route(const std::string& name, size_t num_rows, AppendFn&& append);
  Result<TablePtr> ExecuteSelect(const sql::SelectStmt& stmt);
  /// Shared body of CreateStream: `system` bypasses the reserved-prefix
  /// check and applies the monitor_history retention bound.
  Result<BasketPtr> CreateStreamInternal(const std::string& name,
                                         const Schema& user_schema,
                                         bool system);
  /// Creates the sys.* streams and the monitor transition (constructor tail,
  /// monitor_tick_us > 0 only).
  void SetUpMonitor();
  Status ExecuteCreate(const sql::CreateStmt& stmt);
  Status ExecuteInsert(const sql::InsertStmt& stmt);
  Result<BasketPtr> MakePrivateBasket(const std::string& stream,
                                      const std::string& suffix);
  /// Resolves non-stream scan relations of `plan` from the catalog.
  Result<PlanBindings> ResolveStaticBindings(
      const sql::CompiledQuery& query) const;
  /// Pass-4 analyzer inputs for `query` under the current catalog: string
  /// pricing, input-basket capacities/readers, static-relation row counts.
  analysis::StateAnalyzerOptions StateOptionsFor(
      const sql::CompiledQuery& query) const;
  StreamInfo* FindStream(const std::string& name);

  /// Indirection between producer wake callbacks and the scheduler. Baskets
  /// and channels can outlive the engine — or die before it (e.g. a
  /// stack-allocated Channel in a narrower scope than the engine). Their
  /// callbacks therefore capture a shared_ptr to this hub, never the engine:
  /// the destructor disarms the hub instead of reaching into producers that
  /// may already be gone, and a retained producer firing after engine death
  /// finds the hub disarmed instead of a dangling scheduler.
  struct WakeHub {
    /// Forwards to Scheduler::NotifyWork while armed; no-op after Disarm().
    void Notify();
    void Disarm();

    std::mutex mu;
    Scheduler* scheduler = nullptr;  // guarded by mu; null once disarmed
  };

  /// Points `basket`'s wake callback at the wake hub and remembers the
  /// basket for trace detachment in the destructor (the trace ring dies with
  /// the engine). Also wires lock-wait tracing when enabled.
  void WireBasketWake(const BasketPtr& basket);
  /// Reverses WireBasketWake for a basket the engine retires (a removed
  /// query's private replica or subplan group): it stops exporting series.
  void UnwireBasket(const BasketPtr& basket);
  /// The registry's collector: appends every series in
  /// core/engine_metrics.h, read from the object that owns the count.
  void CollectMetrics(MetricsSnapshotData& out) const;

  EngineOptions options_;
  Catalog catalog_;
  std::unique_ptr<Clock> owned_clock_;
  Clock* clock_;
  SimulatedClock* sim_clock_ = nullptr;
  Scheduler scheduler_;
  /// Shared by all factories' ExecContexts; null when kernel_threads == 0.
  std::unique_ptr<ThreadPool> kernel_pool_;
  /// All wake callbacks route through this hub; disarmed in the destructor.
  std::shared_ptr<WakeHub> wake_hub_;
  /// Live engine-created baskets (stream bases, private replicas, outputs):
  /// kept for per-basket metrics and for trace detachment in the destructor.
  std::vector<BasketPtr> wired_baskets_;
  std::map<std::string, StreamInfo> streams_;  // key: lower-cased name
  std::vector<QueryInfo> queries_;
  std::vector<std::unique_ptr<Channel>> owned_channels_;
  std::vector<std::shared_ptr<Receptor>> receptors_;
  /// Self-observation transition (adapters/monitor.h); null when
  /// monitor_tick_us == 0.
  std::shared_ptr<MonitorReceptor> monitor_;
  /// Default profiling state for factories (mirrors EngineOptions, mutated
  /// by SetProfiling).
  bool profile_queries_ = false;
  // Factored common-subplan groups: "(stream)|(predicate)" -> group basket.
  std::map<std::string, BasketPtr> subplan_groups_;
  std::vector<std::shared_ptr<SharedFilterTransition>> shared_filters_;
  // Atomic: receptors and application threads ingest concurrently.
  std::atomic<int64_t> tuples_ingested_{0};
  int64_t specialized_queries_ = 0;  // registrations, never decremented
  // Observability: holds the morsel counter and collects every other series
  // from its owner at snapshot time. Mutable because GetCounter registers.
  mutable MetricsRegistry metrics_;
  std::unique_ptr<TraceRing> trace_;
};

}  // namespace datacell

#endif  // DATACELL_CORE_ENGINE_H_
