#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "adapters/csv.h"
#include "core/engine.h"
#include "storage/column_batch.h"

namespace datacell {
namespace {

EngineOptions DeterministicOptions() {
  EngineOptions opts;
  opts.use_wall_clock = false;
  return opts;
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : engine_(DeterministicOptions()) {}

  void Sql(const std::string& sql) {
    auto r = engine_.ExecuteSql(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  }

  QueryId Submit(const std::string& name, const std::string& sql,
                 QueryOptions opts = {}) {
    auto q = engine_.SubmitContinuousQuery(name, sql, opts);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return *q;
  }

  std::shared_ptr<CollectingSink> Watch(QueryId id) {
    auto sink = std::make_shared<CollectingSink>();
    EXPECT_TRUE(engine_.Subscribe(id, sink).ok());
    return sink;
  }

  Status IngestInts(const std::string& stream, int lo, int hi) {
    for (int i = lo; i < hi; ++i) {
      DC_RETURN_NOT_OK(engine_.Ingest(stream, {Value::Int64(i)}));
      engine_.simulated_clock()->Advance(1000);
    }
    return Status::OK();
  }

  Engine engine_;
};

// --- DDL / INSERT / one-time SELECT --------------------------------------

TEST_F(EngineTest, CreateInsertSelectTable) {
  Sql("create table t (a int, b varchar)");
  Sql("insert into t values (1, 'x'), (2, 'y'), (3, 'z')");
  auto r = engine_.ExecuteSql(
      "select a, b from t where a >= 2 order by a desc");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ((*r)->num_rows(), 2u);
  EXPECT_EQ((*r)->GetRow(0)[1], Value::String("z"));
}

TEST_F(EngineTest, InsertColumnListAndNulls) {
  Sql("create table t (a int, b varchar, c double)");
  Sql("insert into t (c, a) values (1.5, 7)");
  auto r = engine_.ExecuteSql("select * from t");
  ASSERT_TRUE(r.ok());
  Row row = (*r)->GetRow(0);
  EXPECT_EQ(row[0], Value::Int64(7));
  EXPECT_TRUE(row[1].is_null());
  EXPECT_EQ(row[2], Value::Double(1.5));
}

TEST_F(EngineTest, InsertNegativeLiterals) {
  Sql("create table t (a int)");
  Sql("insert into t values (-5)");
  auto r = engine_.ExecuteSql("select * from t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetRow(0)[0], Value::Int64(-5));
}

TEST_F(EngineTest, CreateBasketAddsTsAndRejectsTs) {
  Sql("create basket r (x int)");
  auto b = engine_.GetBasket("r");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*b)->schema().num_fields(), 2u);
  EXPECT_FALSE(
      engine_.ExecuteSql("create basket bad (ts int)").ok());
}

TEST_F(EngineTest, DuplicateCreateRejected) {
  Sql("create table t (a int)");
  EXPECT_FALSE(engine_.ExecuteSql("create table t (a int)").ok());
  EXPECT_FALSE(engine_.ExecuteSql("create basket t (a int)").ok());
}

TEST_F(EngineTest, DropTableAndBasket) {
  Sql("create table t (a int)");
  Sql("drop table t");
  EXPECT_FALSE(engine_.ExecuteSql("select * from t").ok());
  Sql("create basket r (x int)");
  Sql("drop basket r");
  EXPECT_FALSE(engine_.Ingest("r", {Value::Int64(1)}).ok());
}

TEST_F(EngineTest, DropStreamWithQueriesRejected) {
  Sql("create basket r (x int)");
  Submit("q", "select x from [select * from r] as s");
  EXPECT_FALSE(engine_.ExecuteSql("drop basket r").ok());
}

// A multi-row INSERT applies whole or not at all: the bad third row rejects
// the statement before any row lands.
TEST_F(EngineTest, MultiRowInsertIntoBasketIsAtomic) {
  Sql("create basket s (a int, b int)");
  auto r = engine_.ExecuteSql("insert into s values (1, 1), (2, 2), (3, 'x')");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTypeError()) << r.status().ToString();
  auto s = engine_.GetBasket("s");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ((*s)->size(), 0u);
  EXPECT_EQ((*s)->total_appended(), 0);
  EXPECT_EQ(engine_.tuples_ingested(), 0);
  Sql("insert into s values (1, 1), (2, 2), (3, 3)");
  EXPECT_EQ((*s)->size(), 3u);
  EXPECT_EQ(engine_.tuples_ingested(), 3);
}

TEST_F(EngineTest, MultiRowInsertIntoTableIsAtomic) {
  Sql("create table t (a int, b int)");
  auto r = engine_.ExecuteSql("insert into t values (1, 1), (2, 2), (3, 'x')");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTypeError()) << r.status().ToString();
  auto t = engine_.catalog().Get("t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->num_rows(), 0u);
}

TEST_F(EngineTest, InsertIntoBasketStampsTs) {
  Sql("create basket r (x int)");
  engine_.simulated_clock()->Advance(777);
  Sql("insert into r values (1)");
  auto r = engine_.ExecuteSql("select ts from r");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetRow(0)[0], Value::TimestampVal(777));
}

TEST_F(EngineTest, OneTimeSelectOnBasketIsInspection) {
  // §2.6: outside a basket expression the basket reads like a table and
  // tuples are NOT removed.
  Sql("create basket r (x int)");
  Sql("insert into r values (1), (2)");
  auto r1 = engine_.ExecuteSql("select x from r");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ((*r1)->num_rows(), 2u);
  auto r2 = engine_.ExecuteSql("select x from r");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ((*r2)->num_rows(), 2u);
}

TEST_F(EngineTest, ContinuousQueryViaExecuteSqlRejected) {
  Sql("create basket r (x int)");
  EXPECT_FALSE(engine_.ExecuteSql("select * from [select * from r] as s").ok());
}

TEST_F(EngineTest, OneTimeAggregateAndJoin) {
  Sql("create table f (k int, v double)");
  Sql("create table d (k int, name varchar)");
  Sql("insert into f values (1, 10.0), (1, 20.0), (2, 5.0)");
  Sql("insert into d values (1, 'one'), (2, 'two')");
  auto r = engine_.ExecuteSql(
      "select d.name, sum(f.v) as total from f join d on f.k = d.k "
      "group by d.name order by total desc");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ((*r)->num_rows(), 2u);
  EXPECT_EQ((*r)->GetRow(0)[0], Value::String("one"));
  EXPECT_EQ((*r)->GetRow(0)[1], Value::Double(30.0));
}

// --- continuous pipeline -------------------------------------------------

TEST_F(EngineTest, Figure1Pipeline) {
  Sql("create basket r (x int)");
  QueryId q = Submit("big", "select x from [select * from r] as s "
                            "where s.x > 5");
  auto sink = Watch(q);
  ASSERT_TRUE(IngestInts("r", 0, 10).ok());
  engine_.Drain();
  auto rows = sink->TakeRows();
  ASSERT_EQ(rows.size(), 4u);  // 6,7,8,9
  EXPECT_EQ(rows[0][0], Value::Int64(6));
  // Output rows carry the delivery timestamp column.
  EXPECT_EQ(rows[0].size(), 2u);
}

TEST_F(EngineTest, PredicateWindowLeavesRest) {
  Sql("create basket r (x int)");
  QueryId q = Submit("small", "select x from [select * from r where r.x < 3] "
                              "as s");
  auto sink = Watch(q);
  ASSERT_TRUE(IngestInts("r", 0, 6).ok());
  engine_.Drain();
  EXPECT_EQ(sink->TakeRows().size(), 3u);
  // Non-matching tuples remain in the shared basket... but were passed by
  // the watermark, so they are trimmed. Ingest more to verify the query
  // still runs.
  ASSERT_TRUE(IngestInts("r", 0, 2).ok());
  engine_.Drain();
  EXPECT_EQ(sink->TakeRows().size(), 2u);
}

TEST_F(EngineTest, MultipleQueriesSharedStrategy) {
  Sql("create basket r (x int)");
  QueryId lo = Submit("lo", "select x from [select * from r] as s "
                            "where s.x < 3");
  QueryId hi = Submit("hi", "select x from [select * from r] as s "
                            "where s.x >= 3");
  auto lo_sink = Watch(lo);
  auto hi_sink = Watch(hi);
  ASSERT_TRUE(IngestInts("r", 0, 6).ok());
  engine_.Drain();
  EXPECT_EQ(lo_sink->row_count(), 3u);
  EXPECT_EQ(hi_sink->row_count(), 3u);
  // Shared basket fully trimmed after both consumed.
  EXPECT_EQ((*engine_.GetBasket("r"))->size(), 0u);
}

TEST_F(EngineTest, SeparateStrategyReplicates) {
  Sql("create basket r (x int)");
  QueryOptions sep;
  sep.strategy = ProcessingStrategy::kSeparateBaskets;
  QueryId a = Submit("qa", "select x from [select * from r] as s", sep);
  QueryId b = Submit("qb", "select x from [select * from r] as s", sep);
  auto sa = Watch(a);
  auto sb = Watch(b);
  ASSERT_TRUE(IngestInts("r", 0, 5).ok());
  engine_.Drain();
  EXPECT_EQ(sa->row_count(), 5u);
  EXPECT_EQ(sb->row_count(), 5u);
}

TEST_F(EngineTest, ChainedStrategyDisjointRanges) {
  Sql("create basket r (x int)");
  QueryOptions chained;
  chained.strategy = ProcessingStrategy::kChained;
  QueryId q1 = Submit("c1", "select x from [select * from r where r.x < 5] "
                            "as s", chained);
  QueryId q2 = Submit("c2", "select x from [select * from r where r.x >= 5] "
                            "as s", chained);
  auto s1 = Watch(q1);
  auto s2 = Watch(q2);
  ASSERT_TRUE(IngestInts("r", 0, 10).ok());
  engine_.Drain();
  EXPECT_EQ(s1->row_count(), 5u);
  EXPECT_EQ(s2->row_count(), 5u);
  // q2's factory saw only the 5 tuples q1 did not claim.
  auto info2 = engine_.GetQuery(q2);
  ASSERT_TRUE(info2.ok());
  EXPECT_EQ((*info2)->factory->tuples_processed(), 5);
}

TEST_F(EngineTest, MixedStrategiesOnStreamRejected) {
  Sql("create basket r (x int)");
  QueryOptions chained;
  chained.strategy = ProcessingStrategy::kChained;
  Submit("c1", "select x from [select * from r] as s", chained);
  QueryOptions sep;
  sep.strategy = ProcessingStrategy::kSeparateBaskets;
  EXPECT_FALSE(engine_
                   .SubmitContinuousQuery(
                       "s1", "select x from [select * from r] as s", sep)
                   .ok());
}

// A query over another query's output reads that basket shared, and so its
// other inputs too; a shared reader of a chained stream would never see a
// row, since ingest reaches only the chain head.
TEST_F(EngineTest, JoinOfQueryOutputWithChainedStreamRejected) {
  Sql("create basket r (x int)");
  Sql("create basket s (x int)");
  QueryOptions chained;
  chained.strategy = ProcessingStrategy::kChained;
  Submit("c1", "select x from [select * from s] as t", chained);
  Submit("hot", "select x from [select * from r] as t where t.x > 1");
  auto joined = engine_.SubmitContinuousQuery(
      "j",
      "select h.x from [select * from hot_out] as h "
      "join [select * from s] as t on h.x = t.x",
      chained);
  ASSERT_FALSE(joined.ok());
  EXPECT_EQ(joined.status().code(), StatusCode::kUnimplemented);
  QueryOptions shared;
  shared.strategy = ProcessingStrategy::kSharedBaskets;
  EXPECT_EQ(engine_
                .SubmitContinuousQuery(
                    "s1", "select x from [select * from s] as t", shared)
                .status()
                .code(),
            StatusCode::kUnimplemented);
}

TEST_F(EngineTest, CascadedQueries) {
  // A network of queries: q2 consumes q1's output basket (§4).
  Sql("create basket r (x int)");
  QueryId q1 = Submit("doubler", "select x * 2 as x2 from "
                                 "[select * from r] as s");
  QueryId q2 = Submit("big", "select x2 from [select * from doubler_out] as t "
                             "where t.x2 > 10");
  auto s2 = Watch(q2);
  (void)q1;
  ASSERT_TRUE(IngestInts("r", 0, 10).ok());
  engine_.Drain();
  // x in 6..9 -> x2 in 12..18.
  EXPECT_EQ(s2->row_count(), 4u);
}

TEST_F(EngineTest, StreamTableJoin) {
  Sql("create table dim (x int, label varchar)");
  Sql("insert into dim values (1, 'one'), (3, 'three')");
  Sql("create basket r (x int)");
  QueryId q = Submit("labeled",
                     "select s.x, dim.label from [select * from r] as s "
                     "join dim on s.x = dim.x");
  auto sink = Watch(q);
  ASSERT_TRUE(IngestInts("r", 0, 5).ok());
  engine_.Drain();
  auto rows = sink->TakeRows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], Value::String("one"));
  EXPECT_EQ(rows[1][1], Value::String("three"));
}

TEST_F(EngineTest, LiveTableBindingSeesUpdates) {
  // §2.6: predicates may refer to objects elsewhere in the database; the
  // binding is live, so table updates affect later firings.
  Sql("create table dim (x int, label varchar)");
  Sql("create basket r (x int)");
  QueryId q = Submit("labeled",
                     "select s.x, dim.label from [select * from r] as s "
                     "join dim on s.x = dim.x");
  auto sink = Watch(q);
  ASSERT_TRUE(IngestInts("r", 0, 3).ok());
  engine_.Drain();
  EXPECT_EQ(sink->row_count(), 0u);  // dim empty
  Sql("insert into dim values (1, 'one')");
  ASSERT_TRUE(IngestInts("r", 0, 3).ok());
  engine_.Drain();
  EXPECT_EQ(sink->row_count(), 1u);
}

TEST_F(EngineTest, GroupedAggregateContinuous) {
  Sql("create basket r (k int, v int)");
  QueryId q = Submit("sums",
                     "select k, sum(v) as s from [select * from r] as w "
                     "group by k order by k");
  auto sink = Watch(q);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(engine_.Ingest("r", {Value::Int64(i % 2), Value::Int64(i)}).ok());
  }
  engine_.Drain();
  auto rows = sink->TakeRows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], Value::Double(0 + 2 + 4));
  EXPECT_EQ(rows[1][1], Value::Double(1 + 3 + 5));
}

TEST_F(EngineTest, CountWindowViaEngine) {
  Sql("create basket r (x int)");
  QueryId q = Submit("wsum",
                     "select sum(x) as s from [select * from r] as w "
                     "window size 3");
  auto sink = Watch(q);
  ASSERT_TRUE(IngestInts("r", 0, 7).ok());
  engine_.Drain();
  auto rows = sink->TakeRows();
  ASSERT_EQ(rows.size(), 2u);  // two complete tumbling windows
  EXPECT_EQ(rows[0][0], Value::Double(0 + 1 + 2));
  EXPECT_EQ(rows[1][0], Value::Double(3 + 4 + 5));
}

TEST_F(EngineTest, TimeWindowViaEngineSimClock) {
  Sql("create basket r (x int)");
  QueryId q = Submit("persec",
                     "select count(*) as c from [select * from r] as w "
                     "window range 1 seconds slide 1 seconds");
  auto sink = Watch(q);
  // 3 tuples in second 0, 2 in second 1, then one in second 2 to close.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine_.Ingest("r", {Value::Int64(i)}).ok());
  }
  engine_.simulated_clock()->Advance(kMicrosPerSecond);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(engine_.Ingest("r", {Value::Int64(i)}).ok());
  }
  engine_.simulated_clock()->Advance(kMicrosPerSecond);
  ASSERT_TRUE(engine_.Ingest("r", {Value::Int64(0)}).ok());
  engine_.Drain();
  auto rows = sink->TakeRows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value::Int64(3));
  EXPECT_EQ(rows[1][0], Value::Int64(2));
}

TEST_F(EngineTest, ThresholdBatchesFirings) {
  Sql("create basket r (x int)");
  QueryId q = Submit("batch4",
                     "select x from [select * from r] as s threshold 4");
  auto sink = Watch(q);
  ASSERT_TRUE(IngestInts("r", 0, 3).ok());
  engine_.Drain();
  EXPECT_EQ(sink->row_count(), 0u);  // below threshold: factory waits
  ASSERT_TRUE(IngestInts("r", 3, 4).ok());
  engine_.Drain();
  EXPECT_EQ(sink->row_count(), 4u);
}

TEST_F(EngineTest, TwoStreamJoinFiresWhenBothHaveInput) {
  Sql("create basket a (x int)");
  Sql("create basket b (x int)");
  QueryId q = Submit("joined",
                     "select s1.x from [select * from a] as s1 "
                     "join [select * from b] as s2 on s1.x = s2.x");
  auto sink = Watch(q);
  ASSERT_TRUE(IngestInts("a", 0, 3).ok());
  engine_.Drain();
  // Petri-net rule: both inputs must hold tuples before the factory runs.
  EXPECT_EQ(sink->row_count(), 0u);
  auto info = engine_.GetQuery(q);
  EXPECT_EQ((*info)->factory->runs(), 0);
  ASSERT_TRUE(IngestInts("b", 2, 5).ok());
  engine_.Drain();
  EXPECT_EQ(sink->row_count(), 1u);  // only x=2 in both batches
}

TEST_F(EngineTest, ReceptorParsesAndValidates) {
  Sql("create basket r (x int, name varchar)");
  Channel wire;
  auto receptor = engine_.AttachReceptor("r", &wire);
  ASSERT_TRUE(receptor.ok());
  QueryId q = Submit("all", "select x, name from [select * from r] as s");
  auto sink = Watch(q);
  wire.Push("1,alice");
  wire.Push("not-an-int,bob");  // malformed: dropped, counted
  wire.Push("3,carol");
  engine_.Drain();
  EXPECT_EQ(sink->row_count(), 2u);
  EXPECT_EQ((*receptor)->malformed_lines(), 1);
}

// Regression (found by ASan): a caller-owned Channel died before the engine,
// and ~Engine dereferenced it to detach the wake callback. The wake hub
// decouples the lifetimes: the engine must never touch the channel again.
TEST(EngineLifetimeTest, ChannelMayDieBeforeEngine) {
  Engine engine(DeterministicOptions());
  ASSERT_TRUE(engine.ExecuteSql("create basket r (x int)").ok());
  {
    Channel wire;
    auto receptor = engine.AttachReceptor("r", &wire);
    ASSERT_TRUE(receptor.ok());
    wire.Push("1");
    engine.Drain();
    EXPECT_EQ((*receptor)->runs(), 1);
  }  // `wire` dies here; no further scheduling — the engine may only be
     // destroyed, which must not reach into the dead channel.
}

TEST_F(EngineTest, EmitterToChannel) {
  Sql("create basket r (x int)");
  QueryId q = Submit("big", "select x from [select * from r] as s "
                            "where s.x > 1");
  Channel out;
  ASSERT_TRUE(engine_.Subscribe(q, std::make_shared<ChannelSink>(&out)).ok());
  ASSERT_TRUE(IngestInts("r", 0, 4).ok());
  engine_.Drain();
  EXPECT_EQ(out.size(), 2u);
  std::string line;
  ASSERT_TRUE(out.TryPop(&line));
  EXPECT_EQ(line.substr(0, 2), "2,");
}

TEST_F(EngineTest, ExplainSql) {
  Sql("create basket r (x int)");
  auto mal = engine_.ExplainSql(
      "select x from [select * from r] as s where s.x > 3");
  ASSERT_TRUE(mal.ok());
  EXPECT_NE(mal->find("basket.bind"), std::string::npos);
  EXPECT_NE(mal->find("algebra.select"), std::string::npos);
}

TEST_F(EngineTest, QueryInfoAccessors) {
  Sql("create basket r (x int)");
  QueryId q = Submit("named", "select x from [select * from r] as s");
  auto info = engine_.GetQuery(q);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ((*info)->name, "named");
  EXPECT_NE((*info)->factory, nullptr);
  EXPECT_FALSE(engine_.GetQuery(999).ok());
  EXPECT_EQ(engine_.num_queries(), 1u);
  EXPECT_FALSE(engine_.Subscribe(999, std::make_shared<CollectingSink>()).ok());
}

TEST_F(EngineTest, SubmitValidations) {
  Sql("create basket r (x int)");
  // Not continuous.
  EXPECT_FALSE(engine_.SubmitContinuousQuery("q", "select * from r").ok());
  // Unknown stream.
  EXPECT_FALSE(engine_
                   .SubmitContinuousQuery(
                       "q", "select * from [select * from nope] as s")
                   .ok());
  // Not a select.
  EXPECT_FALSE(
      engine_.SubmitContinuousQuery("q", "create table z (a int)").ok());
}

TEST_F(EngineTest, IngestBeforeQueriesBuffersForInspection) {
  Sql("create basket r (x int)");
  ASSERT_TRUE(IngestInts("r", 0, 3).ok());
  auto r = engine_.ExecuteSql("select count(*) as c from r");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetRow(0)[0], Value::Int64(3));
}

TEST_F(EngineTest, ThreadedModeEndToEnd) {
  Sql("create basket r (x int)");
  QueryId q = Submit("all", "select x from [select * from r] as s");
  auto sink = Watch(q);
  ASSERT_TRUE(engine_.Start().ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine_.Ingest("r", {Value::Int64(i)}).ok());
  }
  for (int i = 0; i < 2000 && sink->row_count() < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  engine_.Stop();
  EXPECT_EQ(sink->row_count(), 100u);
}

// --- one routing, every entry point ------------------------------------------

enum class IngestEntry {
  kIngest,
  kIngestBatch,
  kIngestColumns,
  kIngestTable,
  kReceptor
};

const char* IngestEntryName(IngestEntry e) {
  switch (e) {
    case IngestEntry::kIngest:
      return "Ingest";
    case IngestEntry::kIngestBatch:
      return "IngestBatch";
    case IngestEntry::kIngestColumns:
      return "IngestColumns";
    case IngestEntry::kIngestTable:
      return "IngestTable";
    case IngestEntry::kReceptor:
      return "receptor";
  }
  return "?";
}

// Every processing strategy x every ingest entry point: the same tuples give
// the same output multiset and the same tuples_ingested. Two queries with
// disjoint basket predicates split the stream, so the chained strategy
// applies too; under separate baskets every entry point fans out to the
// private replicas.
TEST(EngineIngestRoutingTest, EveryEntryPointMatchesUnderEveryStrategy) {
  Schema schema({{"x", DataType::kInt64},
                 {"v", DataType::kDouble},
                 {"tag", DataType::kString}});
  std::vector<Row> rows;
  std::vector<std::string> lines;
  for (int i = 0; i < 40; ++i) {
    double v = i + 0.25;
    rows.push_back({Value::Int64(i % 10), Value::Double(v),
                    Value::String("t" + std::to_string(i))});
    lines.push_back(std::to_string(i % 10) + "," + std::to_string(v) + ",t" +
                    std::to_string(i));
  }

  std::optional<std::multiset<std::string>> expected;
  for (ProcessingStrategy strategy :
       {ProcessingStrategy::kSharedBaskets,
        ProcessingStrategy::kSeparateBaskets, ProcessingStrategy::kChained}) {
    for (IngestEntry entry :
         {IngestEntry::kIngest, IngestEntry::kIngestBatch,
          IngestEntry::kIngestColumns, IngestEntry::kIngestTable,
          IngestEntry::kReceptor}) {
      SCOPED_TRACE(std::string(ProcessingStrategyToString(strategy)) + " / " +
                   IngestEntryName(entry));
      Channel wire;  // outlives the engine
      Engine engine(DeterministicOptions());
      ASSERT_TRUE(engine.CreateStream("r", schema).ok());
      QueryOptions opts;
      opts.strategy = strategy;
      std::vector<std::pair<std::string, std::shared_ptr<CollectingSink>>>
          sinks;
      for (const auto& [name, pred] :
           std::vector<std::pair<std::string, std::string>>{
               {"lo", "r.x < 4"}, {"hi", "r.x >= 4"}}) {
        auto q = engine.SubmitContinuousQuery(
            name, "select x, v, tag from [select * from r where " + pred +
                      "] as s",
            opts);
        ASSERT_TRUE(q.ok()) << q.status().ToString();
        sinks.emplace_back(name, std::make_shared<CollectingSink>());
        ASSERT_TRUE(engine.Subscribe(*q, sinks.back().second).ok());
      }

      switch (entry) {
        case IngestEntry::kIngest:
          for (const Row& row : rows) ASSERT_TRUE(engine.Ingest("r", row).ok());
          break;
        case IngestEntry::kIngestBatch:
          ASSERT_TRUE(engine.IngestBatch("r", rows).ok());
          break;
        case IngestEntry::kIngestColumns: {
          ColumnBatch batch(schema);
          ASSERT_TRUE(batch.AppendRows(rows).ok());
          ASSERT_TRUE(engine.IngestColumns("r", std::move(batch)).ok());
          EXPECT_EQ(batch.num_rows(), 0u);
          break;
        }
        case IngestEntry::kIngestTable: {
          Table table("r", schema);
          for (const Row& row : rows) ASSERT_TRUE(table.AppendRow(row).ok());
          ASSERT_TRUE(engine.IngestTable("r", table).ok());
          break;
        }
        case IngestEntry::kReceptor:
          ASSERT_TRUE(engine.AttachReceptor("r", &wire).ok());
          for (const std::string& line : lines) wire.Push(line);
          break;
      }
      engine.Drain();

      EXPECT_EQ(engine.tuples_ingested(), static_cast<int64_t>(rows.size()));
      std::multiset<std::string> got;
      for (const auto& [name, sink] : sinks) {
        for (const Row& row : sink->TakeRows()) {
          std::string s = name;
          for (const Value& v : row) s += "|" + v.ToString();
          got.insert(std::move(s));
        }
      }
      EXPECT_EQ(got.size(), rows.size());
      if (!expected.has_value()) {
        expected = std::move(got);
      } else {
        EXPECT_EQ(got, *expected);
      }
    }
  }
}

}  // namespace
}  // namespace datacell
