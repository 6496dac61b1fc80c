// Sharded multi-engine execution (core/shard.h): equivalence — the same
// queries over the same tuples through the differential harness's reference
// engine and every other configuration, ShardedEngine with N in {1,2,4}
// among them, must produce identical result multisets for every partition
// verdict — plus routing-lattice conflict tests and a concurrent-ingest
// stress shape for the TSan job.

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "adapters/sink.h"
#include "common/hash.h"
#include "core/engine.h"
#include "core/shard.h"
#include "differential.h"

namespace datacell {
namespace {

EngineOptions Deterministic() {
  EngineOptions o;
  o.use_wall_clock = false;  // every ts stamps 0: rows compare exactly
  return o;
}

/// `setup` and one continuous query as a differential scenario: one batch of
/// `rows` into `stream`, then a drain.
differential::Scenario OneBatch(const std::string& setup,
                                const std::string& qname,
                                const std::string& qsql,
                                const std::string& stream,
                                std::vector<Row> rows) {
  differential::Scenario s;
  s.setup = setup;
  s.AddQuery(qname, qsql);
  s.Ingest(stream, std::move(rows));
  s.Drain();
  return s;
}

struct ShardRun {
  differential::Report report;
  /// The last query's placement in each `shards=N` variant, by N.
  std::map<size_t, ShardedEngine::QueryPlacement> placement;
};

/// Runs `s` on every execution configuration (differential.h), the sharded
/// engines among them, and keeps what each shards=N variant placed.
ShardRun RunSharded(differential::Scenario s) {
  ShardRun out;
  s.inspect = [&out](const differential::Instance& inst, size_t) {
    if (inst.config.name != "shards=" + std::to_string(inst.config.shards)) {
      return;
    }
    auto p = inst.sharded->GetPlacement(inst.queries.back());
    EXPECT_TRUE(p.ok());
    if (p.ok()) out.placement[inst.config.shards] = **p;
  };
  out.report = differential::Run(s);
  for (size_t n : {1u, 2u, 4u}) {
    EXPECT_EQ(out.placement.count(n), 1u) << "num_shards=" << n << "\n"
                                          << out.report.ToString();
  }
  return out;
}

std::vector<Row> SensorRows(int n) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    // Integer-valued doubles: per-shard summation stays exact, so avg
    // re-division compares bit-identically against the reference.
    rows.push_back({Value::Int64(i % 17), Value::Double(double(i % 50))});
  }
  return rows;
}

// --- differential equivalence, one test per verdict ------------------------

TEST(ShardEquivalenceTest, PartitionableFilterAllShardCounts) {
  const std::string setup = "create basket sensors (id int, temp double)";
  const std::string q =
      "select id, temp from [select * from sensors] as s where s.temp > 30.0";
  ShardRun r =
      RunSharded(OneBatch(setup, "hot", q, "sensors", SensorRows(200)));
  EXPECT_TRUE(r.report.ok()) << r.report.ToString();
  for (size_t n : {1u, 2u, 4u}) {
    EXPECT_EQ(r.placement[n].verdict,
              analysis::PartitionVerdict::kPartitionable)
        << "num_shards=" << n;
  }
  EXPECT_FALSE(r.report.rows(0, 0).empty());
}

TEST(ShardEquivalenceTest, DeclaredKeyGroupByConcatenates) {
  const std::string setup =
      "create basket sensors (id int, temp double) partition by id";
  const std::string q =
      "select id, sum(temp) as total from [select * from sensors] as s "
      "group by id";
  ShardRun r =
      RunSharded(OneBatch(setup, "per_id", q, "sensors", SensorRows(200)));
  EXPECT_TRUE(r.report.ok()) << r.report.ToString();
  for (size_t n : {1u, 2u, 4u}) {
    EXPECT_EQ(r.placement[n].verdict,
              analysis::PartitionVerdict::kPartitionable)
        << "num_shards=" << n;
  }
  EXPECT_EQ(r.report.rows(0, 0).size(), 17u);
}

TEST(ShardEquivalenceTest, AvgReDivisionMergesExactly) {
  const std::string setup =
      "create basket sensors (id int, temp double) partition by id";
  const std::string q =
      "select avg(temp) as mean from [select * from sensors] as s";
  ShardRun r =
      RunSharded(OneBatch(setup, "mean", q, "sensors", SensorRows(200)));
  EXPECT_TRUE(r.report.ok()) << r.report.ToString();
  for (size_t n : {1u, 2u, 4u}) {
    EXPECT_EQ(r.placement[n].verdict,
              analysis::PartitionVerdict::kNeedsFinalMerge)
        << "num_shards=" << n;
    EXPECT_TRUE(r.placement[n].merged) << "num_shards=" << n;
  }
  EXPECT_EQ(r.report.rows(0, 0).size(), 1u);
}

// The shards forward partials straight into the frontend's partials basket,
// so the merge reads it under the shared strategy whatever the query asked
// for; a separate-baskets query still merges.
TEST(ShardEquivalenceTest, SeparateStrategyQueryStillMerges) {
  ShardedEngineOptions so;
  so.num_shards = 2;
  so.engine = Deterministic();
  ShardedEngine se(so);
  ASSERT_TRUE(se.ExecuteSql("create basket sensors (id int, temp double) "
                            "partition by id")
                  .ok());
  QueryOptions separate;
  separate.strategy = ProcessingStrategy::kSeparateBaskets;
  auto q = se.SubmitContinuousQuery(
      "mean", "select avg(temp) as mean from [select * from sensors] as s",
      separate);
  ASSERT_TRUE(q.ok()) << q.status().message();
  auto sink = std::make_shared<CollectingSink>();
  ASSERT_TRUE(se.Subscribe(*q, sink).ok());
  ASSERT_TRUE(se.IngestBatch("sensors", SensorRows(200)).ok());
  se.Drain();
  std::vector<Row> rows = sink->TakeRows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Double(24.5));  // mean of 0..49, 4 times each
}

TEST(ShardEquivalenceTest, OrderedTopKMergesAcrossShards) {
  const std::string setup =
      "create basket scores (player varchar, pts double) partition by player";
  const std::string q =
      "select player, pts from [select * from scores] as x "
      "order by pts desc limit 10";
  std::vector<Row> rows;
  for (int i = 0; i < 60; ++i) {
    // Distinct pts values: the top-10 cut line has no ties to tie-break.
    rows.push_back(
        {Value::String("p" + std::to_string(i % 23)), Value::Double(i * 3.0)});
  }
  ShardRun r = RunSharded(OneBatch(setup, "ranked", q, "scores", rows));
  EXPECT_TRUE(r.report.ok()) << r.report.ToString();
  for (size_t n : {1u, 2u, 4u}) {
    EXPECT_EQ(r.placement[n].verdict,
              analysis::PartitionVerdict::kNeedsFinalMerge)
        << "num_shards=" << n;
    EXPECT_TRUE(r.placement[n].merged) << "num_shards=" << n;
  }
  EXPECT_EQ(r.report.rows(0, 0).size(), 10u);
}

TEST(ShardEquivalenceTest, BroadcastJoinReplicatesStaticSide) {
  const std::string setup =
      "create basket trades (sym varchar, px double) partition by sym; "
      "create table dims (sym varchar, sector varchar); "
      "insert into dims values ('aa', 'tech'), ('bb', 'energy'), "
      "('cc', 'tech')";
  const std::string q =
      "select t.sym, d.sector, t.px from [select * from trades] as t "
      "join dims as d on t.sym = d.sym";
  std::vector<Row> rows;
  for (int i = 0; i < 90; ++i) {
    const char* syms[] = {"aa", "bb", "cc"};
    rows.push_back({Value::String(syms[i % 3]), Value::Double(double(i))});
  }
  ShardRun r = RunSharded(OneBatch(setup, "sectors", q, "trades", rows));
  EXPECT_TRUE(r.report.ok()) << r.report.ToString();
  for (size_t n : {1u, 2u, 4u}) {
    EXPECT_EQ(r.placement[n].verdict,
              analysis::PartitionVerdict::kNeedsBroadcast)
        << "num_shards=" << n;
  }
  EXPECT_EQ(r.report.rows(0, 0).size(), 90u);
}

TEST(ShardEquivalenceTest, PinnedLimitRunsWholeOnOneShard) {
  const std::string setup =
      "create basket events (x int, y double) partition by x";
  // LIMIT without ORDER BY is arrival-order dependent: pinned.
  const std::string q = "select x from [select * from events] as t limit 5";
  ShardRun r =
      RunSharded(OneBatch(setup, "first5", q, "events", SensorRows(40)));
  EXPECT_TRUE(r.report.ok()) << r.report.ToString();
  for (size_t n : {1u, 2u, 4u}) {
    EXPECT_EQ(r.placement[n].verdict, analysis::PartitionVerdict::kPinned)
        << "num_shards=" << n;
    EXPECT_GE(r.placement[n].home_shard, 0) << "num_shards=" << n;
  }
  EXPECT_EQ(r.report.rows(0, 0).size(), 5u);
}

// --- ingest paths -----------------------------------------------------------

TEST(ShardRouterTest, ColumnarIngestMatchesRowIngest) {
  // The harness's columns and corner configurations feed IngestColumns, the
  // corner into a ShardedEngine of 4; both must match the row-ingest
  // reference.
  differential::Report r = differential::Run(OneBatch(
      "create basket sensors (id int, temp double) partition by id", "per_id",
      "select id, sum(temp) as total from [select * from sensors] as s "
      "group by id",
      "sensors", SensorRows(120)));
  EXPECT_TRUE(r.ok()) << r.ToString();
  for (const char* c : {"columns", "shards=2", "corner"}) {
    EXPECT_TRUE(r.Ran(c)) << c << "\n" << r.ToString();
  }

  ShardedEngineOptions so;
  so.num_shards = 3;
  so.engine = Deterministic();
  ShardedEngine se(so);
  Schema schema;
  schema.AddField(Field{"id", DataType::kInt64});
  schema.AddField(Field{"temp", DataType::kDouble});
  ASSERT_TRUE(se.CreateStream("sensors", schema, "id").ok());
  ColumnBatch batch(schema);
  for (const Row& row : SensorRows(120)) batch.AppendRowUnchecked(row);
  EXPECT_TRUE(se.IngestColumns("sensors", std::move(batch)).ok());
  // The batch hands its buffers to a shard basket and comes back with the
  // swapped-out empties: ready to refill without allocating.
  EXPECT_EQ(batch.num_rows(), 0u);
  EXPECT_EQ(se.routed_tuples(), 120);
}

TEST(ShardRouterTest, HashRouteSendsEqualKeysToOneShard) {
  ShardedEngineOptions so;
  so.num_shards = 4;
  so.engine = Deterministic();
  ShardedEngine se(so);
  ASSERT_TRUE(
      se.ExecuteSql("create basket s (id int, v double) partition by id")
          .ok());
  auto route = se.GetRoute("s");
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route->kind, RouteKind::kHash);
  EXPECT_EQ(route->key_name, "id");

  // 40 rows of one key: exactly one shard holds them all.
  std::vector<Row> rows;
  for (int i = 0; i < 40; ++i) {
    rows.push_back({Value::Int64(7), Value::Double(1.0)});
  }
  ASSERT_TRUE(se.IngestBatch("s", rows).ok());
  int shards_with_rows = 0;
  for (size_t i = 0; i < se.num_shards(); ++i) {
    if (se.shard(i).tuples_ingested() > 0) ++shards_with_rows;
  }
  EXPECT_EQ(shards_with_rows, 1);
  EXPECT_EQ(se.routed_tuples(), 40);
  EXPECT_EQ(se.broadcast_tuples(), 0);
}

// The router hashes a null key to 0, so null-key rows co-locate on shard 0;
// an empty string is a value and hashes elsewhere.
TEST(ShardRouterTest, NullKeysRouteToShardZero) {
  ShardedEngineOptions so;
  so.num_shards = 4;
  so.engine = Deterministic();
  ShardedEngine se(so);
  ASSERT_TRUE(
      se.ExecuteSql("create basket s (tag varchar, v int) partition by tag")
          .ok());
  std::vector<Row> rows(10, Row{Value::Null(), Value::Int64(1)});
  ASSERT_TRUE(se.IngestBatch("s", rows).ok());
  EXPECT_EQ(se.shard(0).tuples_ingested(), 10);
  // HashString("") is the FNV offset basis, which lands on shard 3.
  ASSERT_TRUE(se.IngestBatch("s", {{Value::String(""), Value::Int64(1)}}).ok());
  EXPECT_EQ(se.shard(HashString("") % 4).tuples_ingested(), 1);
  EXPECT_EQ(se.shard(0).tuples_ingested(), 10);
}

TEST(ShardRouterTest, InsertStatementsRouteAndTablesReplicate) {
  ShardedEngineOptions so;
  so.num_shards = 2;
  so.engine = Deterministic();
  ShardedEngine se(so);
  ASSERT_TRUE(se.ExecuteSql("create basket s (x int)").ok());
  ASSERT_TRUE(se.ExecuteSql("create table t (x int)").ok());
  ASSERT_TRUE(se.ExecuteSql("insert into s values (1), (2), (3)").ok());
  ASSERT_TRUE(se.ExecuteSql("insert into t values (42)").ok());
  // Stream rows split across shards; table rows land on every shard.
  EXPECT_EQ(se.routed_tuples(), 3);
  for (size_t i = 0; i < se.num_shards(); ++i) {
    auto t = se.shard(i).catalog().Get("t");
    ASSERT_TRUE(t.ok());
    EXPECT_EQ((*t)->num_rows(), 1u);
  }
  // Gather-select unions the per-shard basket snapshots.
  auto all = se.ExecuteSql("select x from s");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ((*all)->num_rows(), 3u);
}

// The router binds INSERT through the engine's binder: a column list
// places values by name, so the hash key is read from the right column.
TEST(ShardRouterTest, InsertColumnListRoutesOnTheKey) {
  ShardedEngineOptions so;
  so.num_shards = 4;
  so.engine = Deterministic();
  ShardedEngine se(so);
  ASSERT_TRUE(
      se.ExecuteSql("create basket s (k int, v int) partition by k").ok());
  ASSERT_TRUE(
      se.ExecuteSql("insert into s (v, k) values (10, 1), (20, 1)").ok());
  int shards_with_rows = 0;
  for (size_t i = 0; i < se.num_shards(); ++i) {
    auto basket = se.shard(i).GetBasket("s");
    ASSERT_TRUE(basket.ok());
    if ((*basket)->size() > 0) ++shards_with_rows;
  }
  EXPECT_EQ(shards_with_rows, 1);
  auto all = se.ExecuteSql("select k, v from s where k = 1");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ((*all)->num_rows(), 2u);
}

// A batch with one bad row is rejected whole: no shard keeps any of its good
// rows, and nothing is counted as routed (a single Engine behaves the same).
TEST(ShardRouterTest, RejectedBatchLandsOnNoShard) {
  ShardedEngineOptions so;
  so.num_shards = 4;
  so.engine = Deterministic();
  ShardedEngine se(so);
  ASSERT_TRUE(
      se.ExecuteSql("create basket s (k int, v int) partition by k").ok());
  std::vector<Row> rows;
  for (int i = 0; i < 64; ++i) {
    rows.push_back({Value::Int64(i), Value::Int64(i)});
  }
  rows.push_back({Value::Int64(1000), Value::String("bad")});
  const int64_t routed_before = se.routed_tuples();
  Status st = se.IngestBatch("s", rows);
  EXPECT_TRUE(st.IsTypeError()) << st.ToString();
  for (size_t i = 0; i < se.num_shards(); ++i) {
    auto basket = se.shard(i).GetBasket("s");
    ASSERT_TRUE(basket.ok());
    EXPECT_EQ((*basket)->size(), 0u) << "shard " << i;
    EXPECT_EQ(se.shard(i).tuples_ingested(), 0) << "shard " << i;
  }
  EXPECT_EQ(se.routed_tuples(), routed_before);
}

TEST(ShardRouterTest, MultiRowInsertIsAtomic) {
  ShardedEngineOptions so;
  so.num_shards = 4;
  so.engine = Deterministic();
  ShardedEngine se(so);
  ASSERT_TRUE(
      se.ExecuteSql("create basket s (k int, v int) partition by k").ok());
  std::string insert = "insert into s values ";
  for (int i = 0; i < 32; ++i) {
    insert += "(" + std::to_string(i) + ", " + std::to_string(i) + "), ";
  }
  insert += "(1000, 'bad')";
  auto r = se.ExecuteSql(insert);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTypeError()) << r.status().ToString();
  for (size_t i = 0; i < se.num_shards(); ++i) {
    auto basket = se.shard(i).GetBasket("s");
    ASSERT_TRUE(basket.ok());
    EXPECT_EQ((*basket)->size(), 0u) << "shard " << i;
  }
  EXPECT_EQ(se.routed_tuples(), 0);
  auto all = se.ExecuteSql("select k from s");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ((*all)->num_rows(), 0u);
}

// --- routing lattice conflicts ----------------------------------------------

TEST(ShardLatticeTest, ConflictingHashKeysRejectTheNewQuery) {
  ShardedEngineOptions so;
  so.num_shards = 2;
  so.engine = Deterministic();
  ShardedEngine se(so);
  ASSERT_TRUE(se.ExecuteSql("create basket r (x int, y int)").ok());
  auto q1 = se.SubmitContinuousQuery(
      "by_x",
      "select x, count(*) as n from [select * from r] as t group by x");
  ASSERT_TRUE(q1.ok()) << q1.status().message();
  auto r1 = se.GetRoute("r");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->kind, RouteKind::kHash);
  EXPECT_EQ(r1->key_name, "x");

  // Grouping the same stream by a different column needs different
  // co-location; the new query is rejected, the existing route untouched.
  auto q2 = se.SubmitContinuousQuery(
      "by_y",
      "select y, count(*) as n from [select * from r] as t group by y");
  ASSERT_FALSE(q2.ok());
  EXPECT_NE(q2.status().message().find("co-location"), std::string::npos)
      << q2.status().message();
  auto r2 = se.GetRoute("r");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->key_name, "x");
  EXPECT_EQ(se.num_queries(), 1u);
}

TEST(ShardLatticeTest, PinnedConsumerSinglesTheStream) {
  ShardedEngineOptions so;
  so.num_shards = 4;
  so.engine = Deterministic();
  ShardedEngine se(so);
  ASSERT_TRUE(
      se.ExecuteSql("create basket r (x int, y double) partition by x").ok());
  auto pinned = se.SubmitContinuousQuery(
      "first3", "select x from [select * from r] as t limit 3");
  ASSERT_TRUE(pinned.ok()) << pinned.status().message();
  auto placement = se.GetPlacement(*pinned);
  ASSERT_TRUE(placement.ok());
  ASSERT_EQ((*placement)->verdict, analysis::PartitionVerdict::kPinned);
  int home = (*placement)->home_shard;
  ASSERT_GE(home, 0);
  auto route = se.GetRoute("r");
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route->kind, RouteKind::kSingle);
  EXPECT_EQ(route->home_shard, home);

  // A later split consumer still works: one shard is a valid disjoint split.
  auto split = se.SubmitContinuousQuery(
      "all", "select x, y from [select * from r] as t");
  ASSERT_TRUE(split.ok()) << split.status().message();
  auto sink = std::make_shared<CollectingSink>();
  ASSERT_TRUE(se.Subscribe(*split, sink).ok());
  ASSERT_TRUE(se.IngestBatch("r", SensorRows(20)).ok());
  se.Drain();
  EXPECT_EQ(sink->row_count(), 20u);
}

TEST(ShardLatticeTest, DropErasesTheRoute) {
  ShardedEngineOptions so;
  so.num_shards = 2;
  so.engine = Deterministic();
  ShardedEngine se(so);
  ASSERT_TRUE(se.ExecuteSql("create basket r (x int)").ok());
  ASSERT_TRUE(se.GetRoute("r").ok());
  ASSERT_TRUE(se.ExecuteSql("drop basket r").ok());
  EXPECT_FALSE(se.GetRoute("r").ok());
  EXPECT_FALSE(se.Ingest("r", {Value::Int64(1)}).ok());
}

// --- DDL and scripts: every shard catalog moves together -------------------

ShardedEngineOptions FourShards() {
  ShardedEngineOptions so;
  so.num_shards = 4;
  so.engine = Deterministic();
  return so;
}

// Two pinned count-window queries live on different shards, so only shard 1
// hosts b's consumer. The DROP it rejects must leave b on every shard.
TEST(ShardDdlTest, RejectedDropLandsOnNoShard) {
  ShardedEngine se(FourShards());
  auto setup = se.ExecuteScript(
      "create basket a (k int, v int);"
      "create basket b (k int, v int);");
  ASSERT_TRUE(setup.ok()) << setup.status().ToString();
  std::vector<QueryId> ids;
  for (const std::string x : {"a", "b"}) {
    const std::string sql = "select t.k, t.v from [select * from " + x +
                            "] as t window size 4 slide 4";
    auto q = se.SubmitContinuousQuery("w" + x, sql);
    ASSERT_TRUE(q.ok()) << q.status().message();
    ids.push_back(*q);
  }
  auto pa = se.GetPlacement(ids[0]);
  auto pb = se.GetPlacement(ids[1]);
  ASSERT_TRUE(pa.ok() && pb.ok());
  ASSERT_EQ((*pb)->verdict, analysis::PartitionVerdict::kPinned);
  ASSERT_NE((*pa)->home_shard, (*pb)->home_shard);

  auto dropped = se.ExecuteSql("drop basket b");
  ASSERT_FALSE(dropped.ok());
  EXPECT_EQ(dropped.status().code(), StatusCode::kFailedPrecondition)
      << dropped.status().ToString();
  for (size_t i = 0; i < se.num_shards(); ++i) {
    EXPECT_TRUE(se.shard(i).catalog().Contains("b")) << "shard " << i;
  }
  EXPECT_TRUE(se.GetRoute("b").ok());
  // b still exists everywhere, so re-creating it changes no shard.
  auto again = se.ExecuteSql("create basket b (k int, v int)");
  EXPECT_TRUE(again.status().IsAlreadyExists()) << again.status().ToString();
  // And b's pinned consumer still sees every row.
  auto sink = std::make_shared<CollectingSink>();
  ASSERT_TRUE(se.Subscribe(ids[1], sink).ok());
  const std::string rows = "(1, 1), (2, 2), (3, 3), (4, 4)";
  ASSERT_TRUE(se.ExecuteSql("insert into b values " + rows).ok());
  se.Drain();
  EXPECT_EQ(sink->row_count(), 4u);
}

// Sharded twins of misc_test's ScriptTest cases: a script behaves on the
// sharded frontend exactly as on one engine.
TEST(ShardScriptTest, RunsStatementsInOrder) {
  ShardedEngine se(FourShards());
  auto result = se.ExecuteScript(
      "create table t (a int, b varchar);"
      "insert into t values (1, 'x'), (2, 'y');"
      "insert into t values (3, 'z');"
      "select count(*) as c from t;");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ((*result)->GetRow(0)[0], Value::Int64(3));
}

TEST(ShardScriptTest, StopsAtFirstError) {
  ShardedEngine se(FourShards());
  auto result = se.ExecuteScript(
      "create table t (a int);"
      "insert into missing values (1);"
      "create table u (a int);");
  EXPECT_FALSE(result.ok());
  for (size_t i = 0; i < se.num_shards(); ++i) {
    EXPECT_TRUE(se.shard(i).catalog().Contains("t")) << "shard " << i;
    EXPECT_FALSE(se.shard(i).catalog().Contains("u")) << "shard " << i;
  }
}

TEST(ShardScriptTest, LastSelectWins) {
  ShardedEngine se(FourShards());
  auto result = se.ExecuteScript(
      "create table t (a int);"
      "insert into t values (7);"
      "select a from t;"
      "select a + 1 as b from t");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->GetRow(0)[0], Value::Int64(8));
}

TEST(ShardScriptTest, ParseErrorRejectsWholeScript) {
  ShardedEngine se(FourShards());
  EXPECT_FALSE(se.ExecuteScript("create table t (a int); garbage;").ok());
  // Nothing executed, on any shard.
  for (size_t i = 0; i < se.num_shards(); ++i) {
    EXPECT_FALSE(se.shard(i).catalog().Contains("t")) << "shard " << i;
  }
}

// --- cascades over query outputs --------------------------------------------

TEST(ShardCascadeTest, QueryOverPartitionedOutputStream) {
  // hot's output inherits the declared key, so chained consumption stays
  // shard-local; the cascade's end-to-end result matches the reference.
  differential::Scenario s;
  s.Setup("create basket sensors (id int, temp double) partition by id");
  s.AddQuery("hot",
             "select id, temp from [select * from sensors] as s "
             "where s.temp > 10.0");
  s.AddQuery("hot_counts",
             "select id, count(*) as n from [select * from hot_out] as h "
             "group by id");
  s.Ingest("sensors", SensorRows(200));
  s.Drain();
  differential::Report r = differential::Run(s);
  EXPECT_TRUE(r.ok()) << r.ToString();
  for (const char* c : {"shards=2", "shards=4"}) {
    EXPECT_TRUE(r.Ran(c)) << c << "\n" << r.ToString();
  }
  EXPECT_FALSE(r.rows(1, 0).empty());
}

TEST(ShardCascadeTest, MergedOutputIsNotConsumablePerShard) {
  ShardedEngineOptions so;
  so.num_shards = 2;
  so.engine = Deterministic();
  ShardedEngine se(so);
  ASSERT_TRUE(
      se.ExecuteSql("create basket r (id int, temp double) partition by id")
          .ok());
  ASSERT_TRUE(se.SubmitContinuousQuery(
                    "mean", "select avg(temp) as m from [select * from r] as s")
                  .ok());
  // mean's result exists only at the frontend merge stage; a per-shard
  // consumer of mean_out has nothing well-defined to read.
  auto q = se.SubmitContinuousQuery(
      "downstream", "select m from [select * from mean_out] as x");
  EXPECT_FALSE(q.ok());
}

// --- concurrent ingest (the TSan shape) -------------------------------------

TEST(ShardStressTest, ConcurrentProducersConserveTuples) {
  ShardedEngineOptions so;
  so.num_shards = 2;  // wall clock: the threaded scheduler path
  ShardedEngine se(so);
  ASSERT_TRUE(
      se.ExecuteSql("create basket s (id int, v double) partition by id")
          .ok());
  auto q = se.SubmitContinuousQuery(
      "pass", "select id, v from [select * from s] as t");
  ASSERT_TRUE(q.ok()) << q.status().message();
  auto sink = std::make_shared<CountingSink>();
  ASSERT_TRUE(se.Subscribe(*q, sink).ok());
  ASSERT_TRUE(se.Start(1).ok());

  constexpr int kThreads = 4;
  constexpr int kRowsPerThread = 500;
  std::atomic<int> failures{0};
  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&se, &failures, t] {
      for (int i = 0; i < kRowsPerThread; ++i) {
        Status st = se.Ingest(
            "s", {Value::Int64(t * kRowsPerThread + i), Value::Double(1.0)});
        if (!st.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Routed exactly once each; wait for the shard nets to deliver them all.
  EXPECT_EQ(se.routed_tuples(), kThreads * kRowsPerThread);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (sink->rows() < kThreads * kRowsPerThread &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  se.Stop();
  se.Drain();  // deterministic sweep for any tail left at Stop
  EXPECT_EQ(sink->rows(), kThreads * kRowsPerThread);
}

/// Sums a merged query's (count, sum) columns as batches arrive, from any
/// thread.
class TotalsSink final : public ResultSink {
 public:
  void OnBatch(const Table& batch, Timestamp) override {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      n_ += batch.column(0)->Int64At(r);
      sum_ += batch.column(1)->DoubleAt(r);
    }
  }
  int64_t n() const {
    std::lock_guard<std::mutex> lock(mu_);
    return n_;
  }
  double sum() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sum_;
  }

 private:
  mutable std::mutex mu_;
  int64_t n_ = 0;
  double sum_ = 0;
};

// A merged query under Start(): a threaded frontend round may merge only
// some shards' partials, so more (finer) rows arrive than after a drain,
// but every routed tuple is counted in exactly one of them.
TEST(ShardStressTest, MergedQueryUnderStartConservesCounts) {
  ShardedEngineOptions so;
  so.num_shards = 2;  // wall clock: the threaded scheduler path
  ShardedEngine se(so);
  ASSERT_TRUE(
      se.ExecuteSql("create basket s (id int, v int) partition by id").ok());
  auto q = se.SubmitContinuousQuery(
      "tot", "select count(*) as n, sum(v) as s from [select * from s] as t");
  ASSERT_TRUE(q.ok()) << q.status().message();
  auto placement = se.GetPlacement(*q);
  ASSERT_TRUE(placement.ok());
  ASSERT_TRUE((*placement)->merged);
  auto sink = std::make_shared<TotalsSink>();
  ASSERT_TRUE(se.Subscribe(*q, sink).ok());
  ASSERT_TRUE(se.Start(1).ok());

  constexpr int kThreads = 4;
  constexpr int kRowsPerThread = 500;
  constexpr int64_t kTotal = kThreads * kRowsPerThread;
  std::atomic<int> failures{0};
  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&se, &failures, t] {
      for (int i = 0; i < kRowsPerThread; ++i) {
        Status st = se.Ingest(
            "s", {Value::Int64(t * kRowsPerThread + i), Value::Int64(2)});
        if (!st.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(se.routed_tuples(), kTotal);

  // The threaded frontend merges while the shards run.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (sink->n() < kTotal && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const int64_t merged_while_started = sink->n();
  se.Stop();
  se.Drain();  // merges whatever the threaded rounds left behind
  EXPECT_GT(merged_while_started, 0);
  EXPECT_EQ(sink->n(), se.routed_tuples());
  EXPECT_EQ(sink->sum(), 2.0 * kTotal);
}

// --- introspection ----------------------------------------------------------

TEST(ShardReportTest, ShardsReportListsRoutesAndPlacements) {
  ShardedEngineOptions so;
  so.num_shards = 2;
  so.engine = Deterministic();
  ShardedEngine se(so);
  ASSERT_TRUE(
      se.ExecuteSql("create basket r (id int, temp double) partition by id")
          .ok());
  ASSERT_TRUE(se.SubmitContinuousQuery(
                    "mean", "select avg(temp) as m from [select * from r] as s")
                  .ok());
  std::string report = se.ShardsReport();
  EXPECT_NE(report.find("shards: 2"), std::string::npos) << report;
  EXPECT_NE(report.find("r: hash(id)"), std::string::npos) << report;
  EXPECT_NE(report.find("needs-final-merge"), std::string::npos) << report;
  EXPECT_NE(report.find("frontend merge"), std::string::npos) << report;
  // The placement is mirrored into each shard's QueryInfo for \analyze.
  auto info = se.shard(0).GetQuery(0);
  ASSERT_TRUE(info.ok());
  EXPECT_NE((*info)->placement.find("merge"), std::string::npos);
}


// --- exposition goldens -----------------------------------------------------

/// Two shards, one merged query (avg re-division), 40 rows, drained.
void RunMean(ShardedEngine& se) {
  ASSERT_TRUE(se.ExecuteScript("create basket sensors (id int, temp double) "
                               "partition by id")
                  .ok());
  auto q = se.SubmitContinuousQuery(
      "mean", "select avg(temp) as mean from [select * from sensors] as s");
  ASSERT_TRUE(q.ok()) << q.status().message();
  ASSERT_TRUE(se.IngestBatch("sensors", SensorRows(40)).ok());
  se.Drain();
}

/// The router registry's exposition, byte for byte: per-shard routed
/// counters and the broadcast counter, nothing else.
constexpr const char* kRouterGolden = R"(# TYPE datacell_shard_broadcast_tuples_total counter
datacell_shard_broadcast_tuples_total 0
# TYPE datacell_shard_routed_tuples_total counter
datacell_shard_routed_tuples_total{shard="0"} 19
datacell_shard_routed_tuples_total{shard="1"} 21
)";

TEST(ShardMetricsTest, RouterExpositionIsPinned) {
  ShardedEngineOptions so;
  so.num_shards = 2;
  so.engine = Deterministic();
  ShardedEngine se(so);
  RunMean(se);
  EXPECT_EQ(se.metrics().PrometheusText(), kRouterGolden);
}

/// The frontend engine's transition series: the merge of `mean` runs as the
/// ordinary factory_mean and emitter_mean. One round fires each once; the
/// factory reads one partial row per shard.
constexpr const char* kFrontendGolden = R"(# TYPE datacell_transition_fires_total counter
datacell_transition_fires_total{transition="emitter_mean",kind="emitter"} 1
datacell_transition_fires_total{transition="factory_mean",kind="factory"} 1
# TYPE datacell_transition_tuples_total counter
datacell_transition_tuples_total{transition="emitter_mean",kind="emitter"} 1
datacell_transition_tuples_total{transition="factory_mean",kind="factory"} 2
# TYPE datacell_transition_fire_latency_us histogram
datacell_transition_fire_latency_us_bucket{transition="emitter_mean",kind="emitter",le="0"} 1
datacell_transition_fire_latency_us_bucket{transition="emitter_mean",kind="emitter",le="+Inf"} 1
datacell_transition_fire_latency_us_sum{transition="emitter_mean",kind="emitter"} 0
datacell_transition_fire_latency_us_count{transition="emitter_mean",kind="emitter"} 1
datacell_transition_fire_latency_us_bucket{transition="factory_mean",kind="factory",le="0"} 1
datacell_transition_fire_latency_us_bucket{transition="factory_mean",kind="factory",le="+Inf"} 1
datacell_transition_fire_latency_us_sum{transition="factory_mean",kind="factory"} 0
datacell_transition_fire_latency_us_count{transition="factory_mean",kind="factory"} 1
)";

TEST(ShardMetricsTest, FrontendExpositionIsPinned) {
  ShardedEngineOptions so;
  so.num_shards = 2;
  so.engine = Deterministic();
  ShardedEngine se(so);
  RunMean(se);
  EXPECT_EQ(se.frontend().MetricsText("datacell_transition_"),
            kFrontendGolden);
}

}  // namespace
}  // namespace datacell
