#ifndef DATACELL_CORE_SHARD_H_
#define DATACELL_CORE_SHARD_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"

namespace datacell {

/// Options for the sharded multi-engine executor.
struct ShardedEngineOptions {
  /// Number of internal engine shards (>= 1).
  size_t num_shards = 2;
  /// Template applied to every shard's engine; `shard_index` is overridden
  /// per shard. Each shard gets its own Petri net, baskets and scheduler
  /// from this template.
  EngineOptions engine;
};

/// Sticky per-stream ingest route, resolved from the partition-safety
/// constraints of the queries consuming the stream (see ShardedEngine).
enum class RouteKind {
  kRoundRobin,  // any disjoint split works; rows rotate across shards
  kHash,        // hash-split on a key column (common/hash.h row hash)
  kBroadcast,   // every shard receives every row
  kSingle,      // the whole stream lands on one home shard
};

const char* RouteKindName(RouteKind k);

/// N independent DataCell engines behind one SQL/catalog frontend — the
/// fan-out executor for the pass-3 partition recipes (ROADMAP item 1,
/// AsterixDB-style partitioned intake).
///
/// DDL fans out to every shard, so all shard catalogs stay identical and
/// static tables are replicated (satisfying `broadcast_relations` verdicts).
/// Stream ingest goes through the ShardRouter half of this class: each
/// stream carries a sticky RouteKind resolved from its consumers' shard-key
/// constraints — hash-split batches are gathered column-wise with the
/// zero-copy Bat::AppendPositions path into per-shard scratch batches whose
/// buffers recycle through the shard baskets' swap protocol.
///
/// Continuous queries place per their partition verdict:
///   - partitionable / needs-broadcast: the query runs on every shard and
///     sinks receive the concatenation of per-shard results;
///   - needs-final-merge: each shard runs the synthesized partial plan
///     (installed via Engine::SubmitCompiledQuery) and forwards its rows
///     into the frontend engine's `<query>__partials` stream, where the
///     merge plan runs as an ordinary continuous query named `<query>`;
///   - pinned: the query runs whole on one home shard, and its input
///     streams route kSingle there (a single shard is a valid disjoint
///     split, so coexisting split consumers stay correct).
/// Conflicting constraints (e.g. a broadcast consumer joining a stream that
/// existing consumers hash-split) reject the NEW query with
/// FailedPrecondition; earlier placements are never disturbed.
class ShardedEngine {
 public:
  explicit ShardedEngine(ShardedEngineOptions options = {});
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // --- SQL entry points ---------------------------------------------------
  /// Executes one parsed statement. DDL fans the parsed statement out to
  /// every shard's Engine::Execute; a DROP first passes Engine::CheckDrop
  /// on every shard, so one a shard rejects lands on none. INSERT into
  /// streams routes through the router; one-time SELECTs gather (baskets
  /// bind the concatenated per-shard snapshots). Continuous SELECTs are
  /// rejected here. INSERT into a static table replicates to every shard
  /// and, as on one Engine, requires the shards to be stopped.
  Result<TablePtr> Execute(const sql::Statement& stmt);
  /// Parses one statement and executes it.
  Result<TablePtr> ExecuteSql(const std::string& sql);
  /// Parses a ';'-separated script whole (a parse error executes nothing),
  /// then executes its statements in order; stops at the first error.
  /// Returns the result of the last SELECT (or an empty table).
  Result<TablePtr> ExecuteScript(const std::string& script);

  /// Classifies `sql` with the partition analyzer and places it across the
  /// shards per the verdict (see class comment). The returned id is a
  /// frontend id — use it with Subscribe/GetPlacement.
  Result<QueryId> SubmitContinuousQuery(const std::string& name,
                                        const std::string& sql,
                                        QueryOptions options = {});
  /// Attaches `sink` to query `id`'s egress: the frontend engine's merge
  /// query for merged queries, every placed shard's emitter otherwise (sinks
  /// are thread-safe by contract, so fan-in is safe).
  Status Subscribe(QueryId id, std::shared_ptr<ResultSink> sink);

  // --- stream management ---------------------------------------------------
  /// Creates the stream on every shard and registers its route
  /// (kHash when `partition_key` is non-empty, kRoundRobin until a consumer
  /// constrains it otherwise).
  Status CreateStream(const std::string& name, const Schema& user_schema,
                      const std::string& partition_key = "");

  /// Router ingest: splits/replicates per the stream's route. There is one
  /// router, IngestColumns: it gathers with zero-copy AppendPositions into
  /// recycled scratch batches, and `batch` comes back empty with capacity
  /// retained. The row entry points validate the whole batch into a
  /// ColumnBatch first, so a rejected batch reaches no shard.
  Status Ingest(const std::string& name, const Row& values);
  Status IngestBatch(const std::string& name, const std::vector<Row>& rows);
  Status IngestColumns(const std::string& name, ColumnBatch&& batch);

  // --- execution control ----------------------------------------------------
  /// Deterministic quiescence: alternates full shard drains with a frontend
  /// engine drain until a whole round fires nothing (cascaded query
  /// networks settle across rounds). Returns total firings.
  int64_t Drain(int64_t max_rounds = 64);
  /// Starts every shard's threaded scheduler (`threads_per_shard` workers
  /// each — the pinned per-shard worker groups) plus one frontend engine
  /// worker running the merge queries. A threaded merge fire may see only
  /// some shards' partials; its finer rows re-merge to the single-engine
  /// result.
  Status Start(size_t threads_per_shard = 1);
  void Stop();

  // --- introspection ---------------------------------------------------------
  size_t num_shards() const { return shards_.size(); }
  Engine& shard(size_t i) { return *shards_[i]; }
  const Engine& shard(size_t i) const { return *shards_[i]; }
  /// The frontend engine: it holds each merged query's `<query>__partials`
  /// stream and runs its merge plan, so merged queries get the profiling,
  /// metrics, `\stats` and Analyze() of any other query.
  Engine& frontend() { return *frontend_; }
  const Engine& frontend() const { return *frontend_; }

  struct QueryPlacement {
    std::string name;
    analysis::PartitionVerdict verdict = analysis::PartitionVerdict::kPinned;
    /// Human-readable placement, e.g. "all 4 shards (concat)",
    /// "shard 2 (pinned: <reason>)".
    std::string placement;
    int home_shard = -1;  // >= 0 for pinned placements
    bool merged = false;  // frontend merge stage installed
    QueryId frontend_query = 0;  // the merge query's id in frontend()
    std::shared_ptr<const analysis::PartitionReport> report;
    /// (shard index, shard-local query id) for every installed instance.
    std::vector<std::pair<size_t, QueryId>> shard_queries;
  };
  Result<const QueryPlacement*> GetPlacement(QueryId id) const;
  size_t num_queries() const { return placements_.size(); }

  struct StreamRoute {
    RouteKind kind = RouteKind::kRoundRobin;
    size_t key_column = 0;   // kHash
    std::string key_name;    // kHash
    int home_shard = -1;     // kSingle
  };
  Result<StreamRoute> GetRoute(const std::string& stream) const;

  /// Router registry: its snapshot reads the per-shard routed and the
  /// broadcast counts (see core/engine_metrics.h). Each shard's and the
  /// frontend engine's series live in that engine's own registry.
  const MetricsRegistry& metrics() const { return metrics_; }
  int64_t routed_tuples() const;
  int64_t broadcast_tuples() const { return broadcast_.value(); }

  /// The `\shards` report: per-shard net sizes, firings and occupancy,
  /// stream routes, and per-query placements.
  std::string ShardsReport() const;

 private:
  struct RouteState {
    StreamRoute route;
    Schema user_schema;
    /// Consumer constraint book-keeping (drives conflict detection).
    int split_consumers = 0;
    int hash_consumers = 0;
    int broadcast_consumers = 0;
    int whole_consumers = 0;
    /// Route came from a declared PARTITION BY (upgradeable to kSingle by a
    /// pinned consumer while hash_consumers == 0).
    bool declared_only = false;
    // Columnar split scratch, recycled via the basket swap protocol.
    std::vector<ColumnBatch> scratch;            // one per shard
    std::vector<std::vector<size_t>> positions;  // one per shard
    uint64_t rr_cursor = 0;
  };

  /// What a query instance produced an output stream looks like to
  /// downstream consumers (rows appear per-shard, bypassing the router).
  struct InternalStream {
    bool on_all_shards = false;
    int home_shard = -1;  // pinned producer
    bool merged = false;  // egress merged at the frontend; not consumable
  };

  /// One routing requirement a query places on an input stream.
  enum class Need { kSplit, kHash, kBroadcast, kWhole };
  struct Constraint {
    std::string stream;  // lower-cased
    Need need = Need::kSplit;
    size_t hash_column = 0;
    std::string hash_name;
  };

  /// Copyable projection of a RouteState used for two-phase constraint
  /// resolution: all of a query's constraints are checked and accumulated
  /// against claims first, and only a fully consistent set is written back —
  /// a rejected query never disturbs existing routes.
  struct RouteClaim {
    StreamRoute route;
    int split_consumers = 0;
    int hash_consumers = 0;
    int broadcast_consumers = 0;
    int whole_consumers = 0;
  };

  RouteState* FindRoute(const std::string& name);
  const RouteState* FindRoute(const std::string& name) const;
  /// Checks `c` against a claim's current route without mutating it;
  /// returns the route the stream would take. `home` is the placement's
  /// home shard (kWhole needs).
  Result<StreamRoute> CheckConstraint(const RouteClaim& claim,
                                      const Constraint& c, int home) const;
  /// Applies a checked constraint (route change + consumer counts).
  static void CommitConstraint(RouteClaim& claim, const Constraint& c,
                               const StreamRoute& new_route);

  Status RegisterRoute(const std::string& name, const Schema& user_schema,
                       const std::string& partition_key);

  Result<TablePtr> ExecuteGatherSelect(const sql::SelectStmt& stmt);
  /// INSERT into a routed stream goes through the router; into a static
  /// table, to every shard.
  Status ExecuteInsertRouted(const sql::Statement& stmt);
  /// Executes `stmt` on every shard in order; stops at the first error.
  Status FanOut(const sql::Statement& stmt);

  /// The router registry's collector.
  void CollectMetrics(MetricsSnapshotData& out) const;

  ShardedEngineOptions options_;
  /// Serialises the routing state (routes_, internal_, the per-stream
  /// scratch) across concurrent producers and query registration. Shard
  /// ingest happens under it too — per-shard parallelism comes from the
  /// shard schedulers, not from racing producers through the router.
  mutable std::mutex routes_mu_;
  std::vector<std::unique_ptr<Engine>> shards_;
  std::unique_ptr<Engine> frontend_;
  std::map<std::string, RouteState> routes_;          // lower-cased stream
  std::map<std::string, InternalStream> internal_;    // lower-cased stream
  std::vector<QueryPlacement> placements_;
  size_t next_pinned_shard_ = 0;
  MetricsRegistry metrics_;
  std::unique_ptr<Counter[]> routed_;  // tuples routed to each shard
  Counter broadcast_;  // tuples copied to every shard, counted per copy
};

}  // namespace datacell

#endif  // DATACELL_CORE_SHARD_H_
