// Sharded multi-engine execution (core/shard.h): twin-engine equivalence —
// the same queries over the same tuples through a single reference engine
// and through ShardedEngine with N in {1,2,4} must produce identical result
// multisets for every partition verdict — plus routing-lattice conflict
// tests and a concurrent-ingest stress shape for the TSan job.

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "adapters/sink.h"
#include "core/engine.h"
#include "core/shard.h"

namespace datacell {
namespace {

EngineOptions Deterministic() {
  EngineOptions o;
  o.use_wall_clock = false;  // every ts stamps 0: rows compare exactly
  return o;
}

std::multiset<std::string> Multiset(const std::vector<Row>& rows) {
  std::multiset<std::string> out;
  for (const Row& row : rows) {
    std::string s;
    for (const Value& v : row) {
      s += v.ToString();
      s += '|';
    }
    out.insert(std::move(s));
  }
  return out;
}

struct TwinRun {
  std::multiset<std::string> reference;
  std::multiset<std::string> sharded;
  analysis::PartitionVerdict verdict = analysis::PartitionVerdict::kPinned;
  std::string placement;
  bool merged = false;
  int home_shard = -1;
};

/// Runs `setup` + the continuous query on a single reference engine and on a
/// ShardedEngine with `num_shards`, ingests `rows` into `stream` as one
/// batch, drains both, and returns the collected result multisets.
TwinRun RunTwin(const std::string& setup, const std::string& qname,
                const std::string& qsql, const std::string& stream,
                const std::vector<Row>& rows, size_t num_shards) {
  TwinRun out;

  Engine ref(Deterministic());
  EXPECT_TRUE(ref.ExecuteScript(setup).ok());
  auto ref_q = ref.SubmitContinuousQuery(qname, qsql);
  EXPECT_TRUE(ref_q.ok()) << ref_q.status().message();
  if (!ref_q.ok()) return out;
  auto ref_sink = std::make_shared<CollectingSink>();
  EXPECT_TRUE(ref.Subscribe(*ref_q, ref_sink).ok());
  EXPECT_TRUE(ref.IngestBatch(stream, rows).ok());
  ref.Drain();
  out.reference = Multiset(ref_sink->TakeRows());

  ShardedEngineOptions so;
  so.num_shards = num_shards;
  so.engine = Deterministic();
  ShardedEngine se(so);
  EXPECT_TRUE(se.ExecuteScript(setup).ok());
  auto sh_q = se.SubmitContinuousQuery(qname, qsql);
  EXPECT_TRUE(sh_q.ok()) << sh_q.status().message();
  if (!sh_q.ok()) return out;
  auto sh_sink = std::make_shared<CollectingSink>();
  EXPECT_TRUE(se.Subscribe(*sh_q, sh_sink).ok());
  EXPECT_TRUE(se.IngestBatch(stream, rows).ok());
  se.Drain();
  out.sharded = Multiset(sh_sink->TakeRows());
  auto placement = se.GetPlacement(*sh_q);
  EXPECT_TRUE(placement.ok());
  if (placement.ok()) {
    out.verdict = (*placement)->verdict;
    out.placement = (*placement)->placement;
    out.merged = (*placement)->merged;
    out.home_shard = (*placement)->home_shard;
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

// --- twin-engine equivalence, one test per verdict --------------------------

TEST(ShardEquivalenceTest, PartitionableFilterAllShardCounts) {
  const std::string setup = "create basket sensors (id int, temp double)";
  const std::string q =
      "select id, temp from [select * from sensors] as s where s.temp > 30.0";
  for (size_t n : {1u, 2u, 4u}) {
    TwinRun r = RunTwin(setup, "hot", q, "sensors", SensorRows(200), n);
    EXPECT_EQ(r.verdict, analysis::PartitionVerdict::kPartitionable);
    EXPECT_EQ(r.reference, r.sharded) << "num_shards=" << n;
    EXPECT_FALSE(r.reference.empty());
  }
}

TEST(ShardEquivalenceTest, DeclaredKeyGroupByConcatenates) {
  const std::string setup =
      "create basket sensors (id int, temp double) partition by id";
  const std::string q =
      "select id, sum(temp) as total from [select * from sensors] as s "
      "group by id";
  for (size_t n : {1u, 2u, 4u}) {
    TwinRun r = RunTwin(setup, "per_id", q, "sensors", SensorRows(200), n);
    EXPECT_EQ(r.verdict, analysis::PartitionVerdict::kPartitionable);
    EXPECT_EQ(r.reference, r.sharded) << "num_shards=" << n;
    EXPECT_EQ(r.reference.size(), 17u);
  }
}

TEST(ShardEquivalenceTest, AvgReDivisionMergesExactly) {
  const std::string setup =
      "create basket sensors (id int, temp double) partition by id";
  const std::string q =
      "select avg(temp) as mean from [select * from sensors] as s";
  for (size_t n : {1u, 2u, 4u}) {
    TwinRun r = RunTwin(setup, "mean", q, "sensors", SensorRows(200), n);
    EXPECT_EQ(r.verdict, analysis::PartitionVerdict::kNeedsFinalMerge);
    EXPECT_TRUE(r.merged);
    EXPECT_EQ(r.reference, r.sharded) << "num_shards=" << n;
    EXPECT_EQ(r.reference.size(), 1u);
  }
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
  for (size_t n : {1u, 2u, 4u}) {
    TwinRun r = RunTwin(setup, "ranked", q, "scores", rows, n);
    EXPECT_EQ(r.verdict, analysis::PartitionVerdict::kNeedsFinalMerge);
    EXPECT_TRUE(r.merged);
    EXPECT_EQ(r.reference, r.sharded) << "num_shards=" << n;
    EXPECT_EQ(r.sharded.size(), 10u);
  }
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
  for (size_t n : {1u, 2u, 4u}) {
    TwinRun r = RunTwin(setup, "sectors", q, "trades", rows, n);
    EXPECT_EQ(r.verdict, analysis::PartitionVerdict::kNeedsBroadcast);
    EXPECT_EQ(r.reference, r.sharded) << "num_shards=" << n;
    EXPECT_EQ(r.sharded.size(), 90u);
  }
}

TEST(ShardEquivalenceTest, PinnedLimitRunsWholeOnOneShard) {
  const std::string setup =
      "create basket events (x int, y double) partition by x";
  // LIMIT without ORDER BY is arrival-order dependent: pinned.
  const std::string q = "select x from [select * from events] as t limit 5";
  for (size_t n : {1u, 2u, 4u}) {
    TwinRun r = RunTwin(setup, "first5", q, "events", SensorRows(40), n);
    EXPECT_EQ(r.verdict, analysis::PartitionVerdict::kPinned);
    EXPECT_GE(r.home_shard, 0);
    EXPECT_EQ(r.reference, r.sharded) << "num_shards=" << n;
    EXPECT_EQ(r.sharded.size(), 5u);
  }
}

// --- ingest paths -----------------------------------------------------------

TEST(ShardRouterTest, ColumnarIngestMatchesRowIngest) {
  Schema schema;
  schema.AddField(Field{"id", DataType::kInt64});
  schema.AddField(Field{"temp", DataType::kDouble});
  std::vector<Row> rows = SensorRows(120);

  auto run = [&](bool columnar) {
    ShardedEngineOptions so;
    so.num_shards = 3;
    so.engine = Deterministic();
    ShardedEngine se(so);
    EXPECT_TRUE(se.CreateStream("sensors", schema, "id").ok());
    auto q = se.SubmitContinuousQuery(
        "per_id",
        "select id, sum(temp) as total from [select * from sensors] as s "
        "group by id");
    EXPECT_TRUE(q.ok()) << q.status().message();
    auto sink = std::make_shared<CollectingSink>();
    EXPECT_TRUE(se.Subscribe(*q, sink).ok());
    if (columnar) {
      ColumnBatch batch(schema);
      for (const Row& row : rows) batch.AppendRowUnchecked(row);
      EXPECT_TRUE(se.IngestColumns("sensors", std::move(batch)).ok());
      // The batch hands its buffers to a shard basket and comes back with
      // the swapped-out empties: ready to refill without allocating.
      EXPECT_EQ(batch.num_rows(), 0u);
    } else {
      EXPECT_TRUE(se.IngestBatch("sensors", rows).ok());
    }
    se.Drain();
    EXPECT_EQ(se.routed_tuples(), 120);
    return Multiset(sink->TakeRows());
  };

  EXPECT_EQ(run(false), run(true));
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
  const size_t kShards = 2;
  auto run = [&](bool sharded_mode) {
    std::multiset<std::string> got;
    const std::string setup =
        "create basket sensors (id int, temp double) partition by id";
    const std::string q1 =
        "select id, temp from [select * from sensors] as s "
        "where s.temp > 10.0";
    const std::string q2 =
        "select id, count(*) as n from [select * from hot_out] as h "
        "group by id";
    if (sharded_mode) {
      ShardedEngineOptions so;
      so.num_shards = kShards;
      so.engine = Deterministic();
      ShardedEngine se(so);
      EXPECT_TRUE(se.ExecuteScript(setup).ok());
      EXPECT_TRUE(se.SubmitContinuousQuery("hot", q1).ok());
      auto q = se.SubmitContinuousQuery("hot_counts", q2);
      EXPECT_TRUE(q.ok()) << q.status().message();
      if (!q.ok()) return got;
      auto sink = std::make_shared<CollectingSink>();
      EXPECT_TRUE(se.Subscribe(*q, sink).ok());
      EXPECT_TRUE(se.IngestBatch("sensors", SensorRows(200)).ok());
      se.Drain();
      got = Multiset(sink->TakeRows());
    } else {
      Engine ref(Deterministic());
      EXPECT_TRUE(ref.ExecuteScript(setup).ok());
      EXPECT_TRUE(ref.SubmitContinuousQuery("hot", q1).ok());
      auto q = ref.SubmitContinuousQuery("hot_counts", q2);
      EXPECT_TRUE(q.ok()) << q.status().message();
      if (!q.ok()) return got;
      auto sink = std::make_shared<CollectingSink>();
      EXPECT_TRUE(ref.Subscribe(*q, sink).ok());
      EXPECT_TRUE(ref.IngestBatch("sensors", SensorRows(200)).ok());
      ref.Drain();
      got = Multiset(sink->TakeRows());
    }
    return got;
  };
  auto reference = run(false);
  auto sharded = run(true);
  EXPECT_EQ(reference, sharded);
  EXPECT_FALSE(reference.empty());
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


// --- frontend exposition golden ---------------------------------------------

/// The frontend registry's exposition, byte for byte: per-shard routed
/// counters, the broadcast counter and one merge emitter's transition series.
constexpr const char* kFrontendGolden = R"(# TYPE datacell_shard_broadcast_tuples_total counter
datacell_shard_broadcast_tuples_total 0
# TYPE datacell_shard_routed_tuples_total counter
datacell_shard_routed_tuples_total{shard="0"} 19
datacell_shard_routed_tuples_total{shard="1"} 21
# TYPE datacell_transition_fires_total counter
datacell_transition_fires_total{transition="merge_mean",kind="emitter"} 1
# TYPE datacell_transition_tuples_total counter
datacell_transition_tuples_total{transition="merge_mean",kind="emitter"} 1
# TYPE datacell_transition_fire_latency_us histogram
datacell_transition_fire_latency_us_bucket{transition="merge_mean",kind="emitter",le="0"} 1
datacell_transition_fire_latency_us_bucket{transition="merge_mean",kind="emitter",le="+Inf"} 1
datacell_transition_fire_latency_us_sum{transition="merge_mean",kind="emitter"} 0
datacell_transition_fire_latency_us_count{transition="merge_mean",kind="emitter"} 1
)";

TEST(ShardMetricsTest, FrontendExpositionIsPinned) {
  ShardedEngineOptions so;
  so.num_shards = 2;
  so.engine = Deterministic();
  ShardedEngine se(so);
  ASSERT_TRUE(se.ExecuteScript("create basket sensors (id int, temp double) "
                               "partition by id")
                  .ok());
  auto q = se.SubmitContinuousQuery(
      "mean", "select avg(temp) as mean from [select * from sensors] as s");
  ASSERT_TRUE(q.ok()) << q.status().message();
  ASSERT_TRUE(se.IngestBatch("sensors", SensorRows(40)).ok());
  se.Drain();
  EXPECT_EQ(se.metrics().PrometheusText(), kFrontendGolden);
}

}  // namespace
}  // namespace datacell
