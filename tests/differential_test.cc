// The differential harness's own suite: scenarios that between them run
// every axis value (differential.h), and the minimized scenarios of the
// divergences it found.

#include "differential.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>

namespace datacell {
namespace {

using differential::Report;
using differential::Scenario;

const char* const kEveryConfig[] = {
    "reference", "default",  "kept",     "incremental", "shared",
    "chained",   "shards=1", "shards=2", "shards=4",    "columns",
    "text",      "start(2)", "corner"};

std::vector<Row> Readings(int n) {
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back({Value::Int64(i % 7),
                    i % 5 == 4 ? Value::Null() : Value::Double(i * 0.25),
                    Value::String(i % 2 == 0 ? "" : "odd,\"quoted\"")});
  }
  return rows;
}

/// `query` over r (k int, v double, tag varchar), `batches` batches of
/// 3, 5, 7, ... readings, each drained.
Scenario Batches(const std::string& query, int batches) {
  Scenario s;
  s.Setup("create basket r (k int, v double, tag varchar) partition by k");
  s.AddQuery("q", query);
  for (int b = 0; b < batches; ++b) {
    s.Ingest("r", Readings(3 + 2 * b));
    s.Drain();
  }
  return s;
}

TEST(DifferentialTest, FilterRunsEveryConfig) {
  Report r = differential::Run(Batches(
      "select k, v, tag from [select * from r] as t where t.v > 1.0", 4));
  ASSERT_TRUE(r.ok()) << r.ToString();
  for (const char* c : kEveryConfig) EXPECT_TRUE(r.Ran(c)) << c;
  EXPECT_GT(r.total_rows(), 5u);
}

TEST(DifferentialTest, WindowedGroupByRunsEveryConfig) {
  Scenario s = Batches(
      "select k, count(*) as c, sum(v) as s, max(v) as m from "
      "[select * from r] as t group by k order by k window size 8 slide 4",
      6);
  std::map<std::string, std::string> mode;  // config -> window mode
  s.inspect = [&mode](const differential::Instance& inst, size_t) {
    if (inst.engine == nullptr) return;
    mode[inst.config.name] = (*inst.engine->GetQuery(inst.queries[0]))
                                 ->factory->window_mode_name();
  };
  Report r = differential::Run(s);
  ASSERT_TRUE(r.ok()) << r.ToString();
  for (const char* c : kEveryConfig) EXPECT_TRUE(r.Ran(c)) << c;
  EXPECT_EQ(mode["reference"], "reeval");
  EXPECT_EQ(mode["incremental"], "incremental");
  EXPECT_EQ(mode["default"], "incremental");
  EXPECT_GT(r.total_rows(), 0u);
}

// A per-firing aggregate's rows depend on how arrivals split into firings:
// the plan rules out the threaded driver, and only it.
TEST(DifferentialTest, ScalarAggregateSkipsOnlyTheThreadedDriver) {
  Report r = differential::Run(Batches(
      "select count(*) as n, sum(v) as s, min(k) as lo from "
      "[select * from r] as t",
      2));
  ASSERT_TRUE(r.ok()) << r.ToString();
  EXPECT_FALSE(r.Ran("start(2)"));
  ASSERT_EQ(r.skipped.size(), 1u) << r.ToString();
  EXPECT_NE(r.skipped[0].find("start(2): query q"), std::string::npos);
  EXPECT_TRUE(r.Ran("corner"));
  EXPECT_EQ(r.rows(0, 1).size(), 1u);
}

// Chaining hands a query only what the one before it did not keep, so two
// consumers of one stream rule it out; the corner then shares baskets.
TEST(DifferentialTest, TwoConsumersOfOneStreamSkipChaining) {
  Scenario s = Batches("select k from [select * from r] as t where t.k < 3", 1);
  s.AddQuery("high", "select k, tag from [select * from r] as t where t.k > 2");
  Report r = differential::Run(s);
  ASSERT_TRUE(r.ok()) << r.ToString();
  EXPECT_FALSE(r.Ran("chained"));
  EXPECT_TRUE(r.Ran("start(2)"));
  EXPECT_TRUE(r.Ran("corner"));
  ASSERT_EQ(r.skipped.size(), 1u) << r.ToString();
  EXPECT_NE(r.skipped[0].find("feeds both q and high"), std::string::npos);
}

// Found by the harness: a query over another query's output delivered
// nothing under separate baskets or chaining, which fed a private replica or
// chain link of the output basket that its factory never routes into.
TEST(DifferentialTest, QueryOverQueryOutputUnderEveryStrategy) {
  Scenario s;
  s.Setup("create basket r (k int)");
  s.AddQuery("hot", "select k from [select * from r] as t where t.k > 1");
  s.AddQuery("down", "select k from [select * from hot_out] as h");
  s.Ingest("r", {{Value::Int64(1)}, {Value::Int64(2)}, {Value::Int64(3)}});
  Report r = differential::Run(s);
  ASSERT_TRUE(r.ok()) << r.ToString();
  EXPECT_TRUE(r.Ran("chained"));
  EXPECT_EQ(r.rows(1, 0).size(), 2u);
}

// One large batch takes the same single path as a small one: the grouped
// aggregate over 150K rows on the kept group table is bit-identical to the
// fresh-state reference's.
TEST(DifferentialTest, GroupByOverOneLargeBatch) {
  Scenario s;
  s.Setup("create basket r (k int, x int, y double)");
  s.AddQuery(
      "q",
      "select k, count(*), sum(y), max(y), avg(x) from [select * from r] as s "
      "where s.x >= 1 group by k");
  std::vector<Row> rows;
  for (int i = 0; i < 150000; ++i) {
    rows.push_back({Value::Int64(i % 97), Value::Int64(i % 9),
                    Value::Double(i * 0.1)});
  }
  s.Ingest("r", std::move(rows));
  s.Drain();
  Report r = differential::Run(s);
  ASSERT_TRUE(r.ok()) << r.ToString();
  EXPECT_TRUE(r.Ran("kept"));
  EXPECT_TRUE(r.Ran("default"));
  EXPECT_EQ(r.rows(0, 0).size(), 97u);
}

TEST(DifferentialTest, ReferenceRejectionIsASetupError) {
  Report r =
      differential::Run(Batches("select nope from [select * from r] as t", 1));
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.setup_error.find("query q rejected"), std::string::npos)
      << r.ToString();
  EXPECT_TRUE(r.configs.empty());
}

// The comparison can fail: lockstep configs catch a missing, an extra or a
// reordered row and a changed bit; sharded ones catch a missing or extra row
// and a drift beyond 1e-12 relative, but not a reordering.
TEST(DifferentialTest, CompareReportsEveryDivergence) {
  using differential::Compare;
  using differential::Config;
  const Row a = {Value::Int64(1), Value::Double(1.0)};
  const Row b = {Value::Int64(2), Value::Double(0.5)};
  const Row c = {Value::Int64(3), Value::Double(0.25)};
  const Row drifted = {Value::Int64(1), Value::Double(1.0 + 1e-9)};
  const Row rounded = {Value::Int64(1), Value::Double(std::nextafter(1.0, 2))};
  const std::vector<std::vector<Row>> ref = {{a, b}};
  const Config lockstep{.name = "kept", .fresh_state = false};
  const Config sharded{.name = "shards=2", .shards = 2};
  for (const Config* cfg : {&lockstep, &sharded}) {
    EXPECT_EQ(Compare(*cfg, ref, {}, 0, {a, b}), "") << cfg->name;
    EXPECT_NE(Compare(*cfg, ref, {}, 0, {a}), "") << cfg->name;
    EXPECT_NE(Compare(*cfg, ref, {}, 0, {a, b, c}), "") << cfg->name;
    EXPECT_NE(Compare(*cfg, ref, {}, 0, {a, c}), "") << cfg->name;
    EXPECT_NE(Compare(*cfg, ref, {}, 0, {drifted, b}), "") << cfg->name;
  }
  EXPECT_NE(Compare(lockstep, ref, {}, 0, {b, a}), "");
  EXPECT_NE(Compare(lockstep, ref, {}, 0, {rounded, b}), "");
  EXPECT_EQ(Compare(sharded, ref, {}, 0, {b, a}), "");
  EXPECT_EQ(Compare(sharded, ref, {}, 0, {b, rounded}), "");
  // A sort-key projection compares only the keys.
  EXPECT_EQ(Compare(sharded, ref, {0}, 0, {b, drifted}), "");
  EXPECT_NE(Compare(sharded, ref, {0}, 0, {c, a}), "");
}

// Start(2) compares once, at the end: everything delivered so far, without
// the delivery-time ts column.
TEST(DifferentialTest, CompareThreadedIsCumulativeWithoutTs) {
  const Row a = {Value::Int64(1), Value::TimestampVal(0)};
  const Row b = {Value::Int64(2), Value::TimestampVal(1000)};
  const Row late = {Value::Int64(2), Value::TimestampVal(9000)};
  const std::vector<std::vector<Row>> ref = {{a}, {b}};
  const differential::Config threaded{.name = "start(2)", .threaded = true};
  EXPECT_EQ(differential::Compare(threaded, ref, {}, 1, {late, a}), "");
  EXPECT_NE(differential::Compare(threaded, ref, {}, 1, {late}), "");
}

TEST(DifferentialTest, CanonicalIsAnExactMultiset) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Row x = {Value::Double(0.0), Value::String("x")};
  const Row n = {Value::Double(nan), Value::Null()};
  using differential::Canonical;
  const Row negative_nan = {Value::Double(-nan), Value::Null()};
  const Row negative_zero = {Value::Double(-0.0), Value::String("x")};
  const Row empty_string = {Value::Double(nan), Value::String("")};
  EXPECT_EQ(Canonical({x, n}), Canonical({negative_nan, x}));
  EXPECT_NE(Canonical({x, n}), Canonical({negative_zero, n}));
  EXPECT_NE(Canonical({x, n}), Canonical({x, empty_string}));
}

}  // namespace
}  // namespace datacell
