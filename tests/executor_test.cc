// Kept-vs-fresh plan state: every query shape whose plan nodes keep state
// across firings (PlanRunner in algebra/plan.h: filter candidate lists,
// kept join indexes and group tables) runs as a differential scenario
// (differential.h). The reference starts every firing from a fresh
// PlanState; every other execution configuration, the kept-state engine
// among them, runs over identical input, and the delivered rows must match
// value for value (nulls and NaN compared structurally). The same binary is
// registered a second time in ctest with DATACELL_DISABLE_AVX2=1, so every
// assertion here is also verified against the forced-scalar kernel
// variants. The SpecializeEquivalenceTest and SpecializeFallbackTest suite
// names are kept so the test ids stay stable.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "algebra/kernels.h"
#include "algebra/operators.h"
#include "core/engine.h"
#include "differential.h"

namespace datacell {
namespace {

EngineOptions Deterministic(bool fresh_plan_state = false) {
  EngineOptions opts;
  opts.use_wall_clock = false;
  opts.fresh_plan_state = fresh_plan_state;
  return opts;
}

/// Builds a differential::Scenario around one continuous query "q" and runs
/// it on every execution configuration (differential.h) when the test ends:
/// each must deliver the fresh-state reference's rows.
class SpecializeEquivalenceTest : public ::testing::Test {
 protected:
  void Ingest(const std::string& stream, Row row) {
    s_.Ingest(stream, {std::move(row)});
  }

  /// The drains since the previous call deliver at least `at_least` rows.
  void ExpectSameResults(size_t at_least = 0) {
    marks_.push_back({s_.num_drains(), at_least});
  }

  const differential::Report& Run() {
    ran_ = true;
    s_.inspect = [this](const differential::Instance& inst, size_t drain) {
      if (inspect_) inspect_(inst, drain);
    };
    report_ = differential::Run(s_);
    EXPECT_TRUE(report_.ok()) << report_.ToString();
    if (!report_.setup_error.empty()) return report_;
    size_t first = 0;
    for (const auto& [end, at_least] : marks_) {
      size_t rows = 0;
      for (size_t d = first; d < end; ++d) rows += report_.rows(0, d).size();
      EXPECT_GE(rows, at_least) << "drains " << first << " to " << end;
      first = end;
    }
    return report_;
  }

  void TearDown() override {
    if (!ran_) Run();
  }

  differential::Scenario s_;
  std::vector<std::pair<size_t, size_t>> marks_;  // (drains, at least)
  std::function<void(const differential::Instance&, size_t)> inspect_;
  differential::Report report_;
  bool ran_ = false;
};

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// --- filters -------------------------------------------------------------

TEST_F(SpecializeEquivalenceTest, IntRangeFilter) {
  s_.Setup("create basket r (x int)");
  s_.AddQuery("q", "select x from [select * from r] as s where s.x < 5");
  for (int i = 0; i < 10; ++i) Ingest("r", {Value::Int64(i)});
  s_.Drain();
  ExpectSameResults(5);
}

TEST_F(SpecializeEquivalenceTest, AllRowsSelected) {
  s_.Setup("create basket r (x int)");
  s_.AddQuery("q", "select x from [select * from r] as s where s.x >= -100");
  for (int i = 0; i < 8; ++i) Ingest("r", {Value::Int64(i)});
  s_.Drain();
  ExpectSameResults(8);
}

TEST_F(SpecializeEquivalenceTest, NoRowsSelected) {
  s_.Setup("create basket r (x int)");
  s_.AddQuery("q", "select x from [select * from r] as s where s.x > 1000");
  for (int i = 0; i < 8; ++i) Ingest("r", {Value::Int64(i)});
  s_.Drain();
  ExpectSameResults();
}

TEST_F(SpecializeEquivalenceTest, EmptyBatchFires) {
  s_.Setup("create basket r (x int)");
  s_.AddQuery("q", "select x from [select * from r] as s where s.x < 5");
  s_.Drain();  // nothing ingested
  ExpectSameResults();
  Ingest("r", {Value::Int64(1)});
  s_.Drain();
  s_.Drain();  // second drain sees an empty basket
  ExpectSameResults(1);
}

TEST_F(SpecializeEquivalenceTest, DoubleFilterWithNaN) {
  s_.Setup("create basket r (y double)");
  s_.AddQuery("q", "select y from [select * from r] as s where s.y > 1.5");
  Ingest("r", {Value::Double(1.0)});
  Ingest("r", {Value::Double(kNaN)});
  Ingest("r", {Value::Double(2.5)});
  Ingest("r", {Value::Double(-0.0)});
  Ingest("r", {Value::Double(7.25)});
  s_.Drain();
  ExpectSameResults(2);
}

TEST_F(SpecializeEquivalenceTest, NaNIsNotEqualToAnything) {
  s_.Setup("create basket r (y double)");
  s_.AddQuery("q", "select y from [select * from r] as s where s.y <> 2.5");
  Ingest("r", {Value::Double(kNaN)});  // NaN <> v is true
  Ingest("r", {Value::Double(2.5)});
  Ingest("r", {Value::Double(3.0)});
  s_.Drain();
  ExpectSameResults(2);
}

TEST_F(SpecializeEquivalenceTest, NotEqualWithNulls) {
  s_.Setup("create basket r (x int)");
  s_.AddQuery("q", "select x from [select * from r] as s where s.x <> 3");
  Ingest("r", {Value::Int64(3)});
  Ingest("r", {Value::Null()});  // null <> 3 is null -> filtered out
  Ingest("r", {Value::Int64(4)});
  s_.Drain();
  ExpectSameResults(1);
}

TEST_F(SpecializeEquivalenceTest, NullHeavyBatch) {
  s_.Setup("create basket r (x int, y double)");
  s_.AddQuery("q", "select x, y from [select * from r] as s where s.x < 100");
  for (int i = 0; i < 12; ++i) {
    if (i % 3 == 0) {
      Ingest("r", {Value::Null(), Value::Null()});
    } else if (i % 3 == 1) {
      Ingest("r", {Value::Int64(i), Value::Null()});
    } else {
      Ingest("r", {Value::Null(), Value::Double(i * 0.25)});
    }
  }
  s_.Drain();
  ExpectSameResults(4);
}

TEST_F(SpecializeEquivalenceTest, StringEquality) {
  s_.Setup("create basket r (name varchar)");
  s_.AddQuery(
      "q",
      "select name from [select * from r] as s where s.name = 'hit'");
  Ingest("r", {Value::String("hit")});
  Ingest("r", {Value::String("miss")});
  Ingest("r", {Value::Null()});
  Ingest("r", {Value::String("hit")});
  s_.Drain();
  ExpectSameResults(2);
}

TEST_F(SpecializeEquivalenceTest, LikePattern) {
  s_.Setup("create basket r (name varchar)");
  s_.AddQuery(
      "q",
      "select name from [select * from r] as s where s.name like '%ab%'");
  Ingest("r", {Value::String("drab")});
  Ingest("r", {Value::String("xyz")});
  Ingest("r", {Value::Null()});
  Ingest("r", {Value::String("abba")});
  s_.Drain();
  ExpectSameResults(2);
}

TEST_F(SpecializeEquivalenceTest, AndOrNotCombinators) {
  s_.Setup("create basket r (x int, y double)");
  s_.AddQuery("q", "select x, y from [select * from r] as s "
              "where (s.x > 2 and s.x < 8) or not (s.y < 1.0)");
  for (int i = 0; i < 10; ++i) {
    Ingest("r", {Value::Int64(i), Value::Double(i * 0.25)});
  }
  Ingest("r", {Value::Null(), Value::Double(5.0)});
  Ingest("r", {Value::Int64(5), Value::Null()});
  Ingest("r", {Value::Null(), Value::Null()});
  s_.Drain();
  ExpectSameResults(1);
}

TEST_F(SpecializeEquivalenceTest, IsNullIsNotNull) {
  s_.Setup("create basket r (x int)");
  s_.AddQuery("q", "select x from [select * from r] as s where s.x is null");
  Ingest("r", {Value::Int64(1)});
  Ingest("r", {Value::Null()});
  Ingest("r", {Value::Int64(2)});
  Ingest("r", {Value::Null()});
  s_.Drain();
  ExpectSameResults(2);
}

TEST_F(SpecializeEquivalenceTest, IsNotNullFilter) {
  s_.Setup("create basket r (x int)");
  s_.AddQuery(
      "q",
      "select x from [select * from r] as s where s.x is not null");
  Ingest("r", {Value::Int64(1)});
  Ingest("r", {Value::Null()});
  Ingest("r", {Value::Int64(2)});
  s_.Drain();
  ExpectSameResults(2);
}

TEST_F(SpecializeEquivalenceTest, BoolColumnFilter) {
  s_.Setup("create basket r (flag bool, x int)");
  s_.AddQuery("q", "select x from [select * from r] as s where s.flag");
  Ingest("r", {Value::Bool(true), Value::Int64(1)});
  Ingest("r", {Value::Bool(false), Value::Int64(2)});
  Ingest("r", {Value::Null(), Value::Int64(3)});
  Ingest("r", {Value::Bool(true), Value::Int64(4)});
  s_.Drain();
  ExpectSameResults(2);
}

// Predicates over computed expressions are not lowered: the Filter node
// selects through EvaluatePredicate.
TEST_F(SpecializeEquivalenceTest, PredicateOverScalarFunction) {
  s_.Setup("create basket r (x int)");
  s_.AddQuery("q", "select x from [select * from r] as s where abs(s.x) > 2");
  for (int i = -5; i <= 5; ++i) Ingest("r", {Value::Int64(i)});
  Ingest("r", {Value::Null()});
  s_.Drain();
  ExpectSameResults(6);
}

TEST_F(SpecializeEquivalenceTest, PredicateOverColumnArithmetic) {
  s_.Setup("create basket r (x int, y double)");
  s_.AddQuery("q",
              "select x, y from [select * from r] as s where s.x + s.y > 3");
  for (int i = 0; i < 8; ++i) {
    Ingest("r", {Value::Int64(i), Value::Double(i * 0.5 - 1.0)});
  }
  Ingest("r", {Value::Null(), Value::Double(9.0)});
  Ingest("r", {Value::Int64(9), Value::Null()});
  s_.Drain();
  ExpectSameResults(4);
}

TEST_F(SpecializeEquivalenceTest, PredicateOverStringFunction) {
  s_.Setup("create basket r (name varchar, x int)");
  s_.AddQuery("q", "select name, x from [select * from r] as s "
              "where upper(s.name) = 'A'");
  Ingest("r", {Value::String("a"), Value::Int64(1)});
  Ingest("r", {Value::String("A"), Value::Int64(2)});
  Ingest("r", {Value::String("ab"), Value::Int64(3)});
  Ingest("r", {Value::Null(), Value::Int64(4)});
  s_.Drain();
  ExpectSameResults(2);
}

// --- constant folding ----------------------------------------------------

TEST_F(SpecializeEquivalenceTest, ConstantTruePredicate) {
  s_.Setup("create basket r (x int)");
  s_.AddQuery("q", "select x from [select * from r] as s where 1 < 2");
  for (int i = 0; i < 5; ++i) Ingest("r", {Value::Int64(i)});
  s_.Drain();
  ExpectSameResults(5);
}

TEST_F(SpecializeEquivalenceTest, ConstantFalsePredicate) {
  s_.Setup("create basket r (x int)");
  s_.AddQuery("q", "select x from [select * from r] as s where 1 > 2");
  for (int i = 0; i < 5; ++i) Ingest("r", {Value::Int64(i)});
  s_.Drain();
  ExpectSameResults();
  EXPECT_EQ(Run().total_rows(), 0u);
}

TEST_F(SpecializeEquivalenceTest, ConstantFalseConjunct) {
  s_.Setup("create basket r (x int)");
  s_.AddQuery("q", "select x from [select * from r] as s "
              "where abs(s.x) >= 0 and 1 > 2");
  for (int i = -2; i < 3; ++i) Ingest("r", {Value::Int64(i)});
  s_.Drain();
  ExpectSameResults();
  EXPECT_EQ(Run().total_rows(), 0u);
}

// --- projections ---------------------------------------------------------

TEST_F(SpecializeEquivalenceTest, ArithmeticProjections) {
  s_.Setup("create basket r (x int, y double)");
  s_.AddQuery("q", "select s.x + 1, 10 - s.x, s.x * 2, s.y * 2.0, s.y / 4.0 "
              "from [select * from r] as s where s.x >= 0");
  for (int i = 0; i < 6; ++i) {
    Ingest("r", {Value::Int64(i), Value::Double(i * 0.25)});
  }
  Ingest("r", {Value::Null(), Value::Double(1.0)});
  s_.Drain();
  ExpectSameResults(6);
}

TEST_F(SpecializeEquivalenceTest, DivisionAndModuloByZero) {
  s_.Setup("create basket r (x int, y double)");
  s_.AddQuery("q", "select s.x / 0, s.x % 0, s.y / 0.0 "
              "from [select * from r] as s where s.x > -100");
  Ingest("r", {Value::Int64(7), Value::Double(2.5)});
  Ingest("r", {Value::Int64(-3), Value::Double(-1.25)});
  s_.Drain();
  ExpectSameResults(2);
}

TEST_F(SpecializeEquivalenceTest, ScalarFunctionAndCaseProjections) {
  s_.Setup("create basket r (x int, y double, name varchar)");
  s_.AddQuery("q", "select abs(s.x), floor(s.y), upper(s.name), length(s.name), "
              "case when s.x > 2 then s.y when s.x < 0 then 0.5 else -1.0 end "
              "from [select * from r] as s where s.x > -3");
  for (int i = -4; i < 6; ++i) {
    Ingest("r", {Value::Int64(i), Value::Double(i * 0.75),
                 Value::String(i % 2 == 0 ? "ab" : "Cd")});
  }
  Ingest("r", {Value::Int64(4), Value::Null(), Value::Null()});
  s_.Drain();
  ExpectSameResults(9);
}

TEST_F(SpecializeEquivalenceTest, ColumnOpColumnArithmetic) {
  s_.Setup("create basket r (x int, z int, y double)");
  s_.AddQuery("q", "select s.x + s.z, s.x - s.z, s.x * s.z, s.x / s.z, "
              "s.x % s.z, s.x * s.y, s.y / s.x from [select * from r] as s");
  for (int i = -3; i < 5; ++i) {
    // z cycles through zero, so division and modulo by zero yield null.
    Ingest("r", {Value::Int64(i * 7), Value::Int64(i % 3),
                 Value::Double(i * 0.25)});
  }
  Ingest("r", {Value::Null(), Value::Int64(2), Value::Double(1.0)});
  Ingest("r", {Value::Int64(5), Value::Null(), Value::Null()});
  s_.Drain();
  ExpectSameResults(10);
}

// --- aggregates ----------------------------------------------------------

TEST_F(SpecializeEquivalenceTest, ScalarAggregatesNoFilter) {
  s_.Setup("create basket r (x int, y double)");
  s_.AddQuery("q", "select count(*), count(x), sum(x), min(x), max(x), avg(x), "
              "sum(y), min(y), max(y) from [select * from r] as s");
  for (int i = 0; i < 9; ++i) {
    Ingest("r", {Value::Int64(i), Value::Double(i * 0.25)});
  }
  Ingest("r", {Value::Null(), Value::Null()});
  s_.Drain();
  ExpectSameResults(1);
}

// 0.1 * i is inexact in double, so a sum over these values depends on the
// order of its additions. Kept and fresh state both add in input row order:
// sum and avg match bit for bit.
TEST_F(SpecializeEquivalenceTest, FilterAggregateInexactDoubles) {
  double forward = 0.0, backward = 0.0;
  for (int i = 0; i < 16; ++i) forward += i * 0.1;
  for (int i = 15; i >= 0; --i) backward += i * 0.1;
  ASSERT_NE(forward, backward) << "the data must make the additions round";
  s_.Setup("create basket r (x int, y double)");
  s_.AddQuery("q", "select count(*), sum(y), avg(y), min(y), max(y) "
              "from [select * from r] as s where s.x >= 0");
  for (int i = 0; i < 16; ++i) {
    Ingest("r", {Value::Int64(i), Value::Double(i * 0.1)});
  }
  s_.Drain();
  ExpectSameResults(1);
  const differential::Report& report = Run();
  ASSERT_EQ(report.rows(0, 0).size(), 1u);
  EXPECT_EQ(report.rows(0, 0)[0][1], Value::Double(forward));
}

TEST_F(SpecializeEquivalenceTest, AggregateOverEmptyFire) {
  s_.Setup("create basket r (x int)");
  s_.AddQuery(
      "q",
      "select count(*), sum(x), min(x) from [select * from r] as s "
      "where s.x > 100");
  for (int i = 0; i < 4; ++i) Ingest("r", {Value::Int64(i)});
  s_.Drain();
  // Nothing passes the filter; both paths still emit one row of aggregate
  // identities (count 0, null sum/min).
  ExpectSameResults(1);
}

TEST_F(SpecializeEquivalenceTest, AggregateWithNaNValues) {
  s_.Setup("create basket r (x int, y double)");
  s_.AddQuery("q", "select count(y), sum(y), min(y), max(y) "
              "from [select * from r] as s where s.x >= 0");
  Ingest("r", {Value::Int64(0), Value::Double(1.25)});
  Ingest("r", {Value::Int64(1), Value::Double(kNaN)});
  Ingest("r", {Value::Int64(2), Value::Double(-3.5)});
  s_.Drain();
  ExpectSameResults(1);
}

// --- joins ---------------------------------------------------------------

TEST_F(SpecializeEquivalenceTest, StreamTableJoin) {
  s_.Setup("create table t (k int, v double)");
  s_.Setup(
      "insert into t values (1, 0.25), (1, 0.5), (3, 0.75), (5, 1.0)");
  s_.Setup("create basket r (x int)");
  s_.AddQuery(
      "q",
      "select s.x, t.v from [select * from r] as s join t on s.x = t.k");
  for (int i = 0; i < 7; ++i) Ingest("r", {Value::Int64(i)});
  Ingest("r", {Value::Null()});  // null keys never match
  s_.Drain();
  // x=1 matches twice, x=3 and x=5 once each.
  ExpectSameResults(4);
}

TEST_F(SpecializeEquivalenceTest, JoinWithNullBuildKeys) {
  s_.Setup("create table t (k int, v int)");
  s_.Setup("insert into t values (2, 20), (null, 99), (2, 21)");
  s_.Setup("create basket r (x int)");
  s_.AddQuery(
      "q",
      "select s.x, t.v from [select * from r] as s join t on s.x = t.k");
  Ingest("r", {Value::Int64(2)});
  Ingest("r", {Value::Int64(4)});
  s_.Drain();
  ExpectSameResults(2);
}

TEST_F(SpecializeEquivalenceTest, JoinThenFilterThenAggregate) {
  s_.Setup("create table t (k int, v double)");
  s_.Setup("insert into t values (0, 0.5), (1, 1.5), (2, 2.5)");
  s_.Setup("create basket r (x int)");
  s_.AddQuery("q", "select count(*), sum(t.v) from [select * from r] as s "
              "join t on s.x = t.k where t.v > 1.0");
  for (int i = 0; i < 5; ++i) Ingest("r", {Value::Int64(i)});
  s_.Drain();
  ExpectSameResults(1);
}

// --- shapes without a kept group table ------------------------------------

TEST_F(SpecializeEquivalenceTest, WindowedQueryFallsBack) {
  s_.Setup("create basket r (x int)");
  s_.AddQuery("q", "select sum(x) from [select * from r] as s window size 4");
  for (int i = 0; i < 8; ++i) Ingest("r", {Value::Int64(i)});
  s_.Drain();
  // The window's partial and merge plans keep their state in the kept
  // configs only: still equivalent.
  ExpectSameResults(1);
}

TEST_F(SpecializeEquivalenceTest, GroupByMultiColumnKeyFallsBack) {
  s_.Setup("create basket r (x int, y int)");
  s_.AddQuery(
      "q",
      "select x, y, count(*) from [select * from r] as s group by x, y");
  for (int i = 0; i < 6; ++i) {
    Ingest("r", {Value::Int64(i % 2), Value::Int64(i % 3)});
  }
  s_.Drain();
  ExpectSameResults(6);
}

TEST_F(SpecializeEquivalenceTest, GroupByStringKeyFallsBack) {
  s_.Setup("create basket r (name varchar, x int)");
  s_.AddQuery(
      "q",
      "select name, sum(x) from [select * from r] as s group by name");
  for (int i = 0; i < 6; ++i) {
    Ingest("r",
                 {Value::String(i % 2 == 0 ? "a" : "b"), Value::Int64(i)});
  }
  s_.Drain();
  ExpectSameResults(2);
}

TEST_F(SpecializeEquivalenceTest, GroupByBoolKeyFallsBack) {
  s_.Setup("create basket r (flag bool, x int)");
  s_.AddQuery(
      "q",
      "select flag, count(*) from [select * from r] as s group by flag");
  for (int i = 0; i < 6; ++i) {
    Ingest("r", {Value::Bool(i % 3 == 0), Value::Int64(i)});
  }
  s_.Drain();
  ExpectSameResults(2);
}

// --- group-by --------------------------------------------------------------

TEST_F(SpecializeEquivalenceTest, GroupByEveryAggregateFunction) {
  s_.Setup("create basket r (k int, v int, y double, b bool)");
  s_.AddQuery(
      "q",
      "select k, count(*), count(v), sum(v), min(v), max(v), avg(v), "
      "count(y), sum(y), min(y), max(y), avg(y), sum(b) "
      "from [select * from r] as s group by k");
  std::vector<Row> rows;
  for (int i = 0; i < 40; ++i) {
    // 0.1 multiples are not exactly representable: any reassociation of the
    // per-group sums would show in the last bits.
    rows.push_back({Value::Int64(i % 7), Value::Int64(i * 3 - 50),
                    Value::Double(i * 0.1 - 1.7), Value::Bool(i % 3 == 0)});
  }
  rows.push_back({Value::Int64(2), Value::Null(), Value::Double(kNaN),
                  Value::Null()});
  rows.push_back({Value::Int64(3), Value::Int64(-1), Value::Double(-0.0),
                  Value::Bool(false)});
  s_.Ingest("r", rows);
  s_.Drain();
  ExpectSameResults(7);
}

TEST_F(SpecializeEquivalenceTest, GroupByNullKeysAndNullValues) {
  s_.Setup("create basket r (k int, v double)");
  s_.AddQuery(
      "q",
      "select k, count(*), count(v), sum(v), min(v), max(v), avg(v) "
      "from [select * from r] as s group by k");
  // All null keys form one group placed at the first null; group 5 sees
  // only null values (count 0, null sum/min/max/avg).
  s_.Ingest("r", {{Value::Int64(1), Value::Double(0.5)},
                  {Value::Null(), Value::Double(1.25)},
                  {Value::Int64(5), Value::Null()},
                  {Value::Int64(1), Value::Null()},
                  {Value::Null(), Value::Null()},
                  {Value::Int64(5), Value::Null()},
                  {Value::Null(), Value::Double(-2.0)},
                  {Value::Int64(1), Value::Double(3.0)}});
  s_.Drain();
  ExpectSameResults(3);
}

TEST_F(SpecializeEquivalenceTest, GroupByEmptyBatchAndSingleGroup) {
  s_.Setup("create basket r (k int, v int)");
  s_.AddQuery(
      "q",
      "select k, sum(v), count(*) from [select * from r] as s group by k");
  s_.Drain();  // nothing ingested: no groups, no rows
  ExpectSameResults();
  std::vector<Row> rows;
  for (int i = 0; i < 9; ++i) {
    rows.push_back({Value::Int64(42), Value::Int64(i)});
  }
  s_.Ingest("r", rows);
  s_.Drain();
  s_.Drain();  // second drain sees an empty basket
  ExpectSameResults(1);
}

TEST_F(SpecializeEquivalenceTest, GroupByKeysOutgrowPreviousFiring) {
  s_.Setup("create basket r (k int, v int)");
  s_.AddQuery(
      "q",
      "select k, count(*), max(v) from [select * from r] as s group by k");
  s_.Ingest("r", {{Value::Int64(1), Value::Int64(1)},
                  {Value::Int64(2), Value::Int64(2)},
                  {Value::Int64(1), Value::Int64(3)}});
  s_.Drain();
  // 600 distinct keys: the reused table must grow mid-firing and keep the
  // first-appearance order of the groups already placed.
  std::vector<Row> rows;
  for (int i = 0; i < 1200; ++i) {
    rows.push_back({Value::Int64((i * 7919) % 600), Value::Int64(i)});
  }
  s_.Ingest("r", rows);
  s_.Drain();
  // A later small firing reuses the grown table with stale slots.
  s_.Ingest("r", {{Value::Int64(599), Value::Int64(7)},
                  {Value::Int64(3), Value::Int64(8)}});
  s_.Drain();
  size_t small = 0;
  inspect_ = [&small](const differential::Instance& inst, size_t drain) {
    if (inst.config.name != "kept") return;
    size_t high_water = (*inst.engine->GetQuery(inst.queries[0]))
                            ->factory->state_bytes_high_water();
    if (drain == 0) {
      small = high_water;
      EXPECT_GT(small, 0u);  // the group table is metered
    } else if (drain == 1) {
      EXPECT_GT(high_water, small);
    }
  };
  ExpectSameResults(2 + 600 + 2);
  Run();  // here, while `small` is alive; TearDown would run it too late
}

TEST_F(SpecializeEquivalenceTest, GroupByExtremeAndNegativeKeys) {
  s_.Setup("create basket r (k int, v int)");
  s_.AddQuery(
      "q",
      "select k, sum(v), min(v) from [select * from r] as s group by k");
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  std::vector<Row> rows;
  for (int64_t k : {hi, lo, int64_t{-1}, int64_t{0}, lo, int64_t{-7}, hi,
                    int64_t{-1}, lo + 1, hi - 1}) {
    rows.push_back({Value::Int64(k), Value::Int64(k % 1000)});
  }
  s_.Ingest("r", rows);
  s_.Drain();
  ExpectSameResults(7);
}

TEST_F(SpecializeEquivalenceTest, GroupByTimestampKey) {
  s_.Setup("create basket r (at timestamp, v double)");
  s_.AddQuery(
      "q",
      "select at, count(*), avg(v) from [select * from r] as s group by at");
  std::vector<Row> rows;
  for (int i = 0; i < 12; ++i) {
    rows.push_back({Value::TimestampVal(1000000 * (i % 4)),
                    Value::Double(i * 0.3)});
  }
  s_.Ingest("r", rows);
  s_.Drain();
  ExpectSameResults(4);
}

TEST_F(SpecializeEquivalenceTest, FilterThenGroupBy) {
  s_.Setup("create basket r (k int, x int, y double)");
  s_.AddQuery("q", "select k, count(*), sum(y) from [select * from r] as s "
              "where s.x > 3 and s.y < 4.0 group by k");
  std::vector<Row> rows;
  for (int i = 0; i < 30; ++i) {
    Row row = {Value::Int64(i % 4), Value::Int64(i % 9),
               Value::Double(i * 0.2)};
    if (i % 5 == 4) row[0] = Value::Null();
    rows.push_back(std::move(row));
  }
  s_.Ingest("r", rows);
  s_.Drain();
  ExpectSameResults(1);
}

TEST_F(SpecializeEquivalenceTest, JoinThenGroupBy) {
  s_.Setup("create table t (k int, sector int, w double)");
  s_.Setup(
      "insert into t values (0, 10, 0.5), (1, 11, 1.5), (2, 10, 2.5), "
      "(2, 12, 0.25)");
  s_.Setup("create basket r (x int, q int)");
  s_.AddQuery("q", "select t.sector, count(*), sum(s.q), max(t.w) from "
              "[select * from r] as s join t on s.x = t.k group by t.sector");
  std::vector<Row> rows;
  for (int i = 0; i < 20; ++i) {
    rows.push_back({Value::Int64(i % 4), Value::Int64(i)});
  }
  s_.Ingest("r", rows);
  s_.Drain();
  ExpectSameResults(3);
}

TEST_F(SpecializeEquivalenceTest, GroupByPostProjectionReordersAndComputes) {
  s_.Setup("create basket r (k int, v int)");
  s_.AddQuery("q", "select sum(v) * 2, k, count(*) + 1, max(v) - 0.5 "
              "from [select * from r] as s group by k");
  std::vector<Row> rows;
  for (int i = 0; i < 15; ++i) {
    rows.push_back({Value::Int64(i % 3), Value::Int64(i * i)});
  }
  rows[4][1] = Value::Null();
  s_.Ingest("r", rows);
  s_.Drain();
  ExpectSameResults(3);
}

// --- state kept across firings ---------------------------------------------

using ExecutorEquivalenceTest = SpecializeEquivalenceTest;

// The kept join index covers the build side's rows at the firing that built
// it; an INSERT between drains grows the table, so the next firing must
// rebuild the index, as the fresh-state reference builds a new one.
TEST_F(ExecutorEquivalenceTest, JoinBuildSideGrowsMidRun) {
  s_.Setup("create table t (k int, w int)");
  s_.Setup("insert into t values (1, 10), (2, 20)");
  s_.Setup("create basket r (x int)");
  s_.AddQuery("q", "select s.x, t.w from [select * from r] as s "
              "join t on s.x = t.k");
  auto probe = [this](int n) {
    std::vector<Row> rows;
    for (int i = 1; i <= n; ++i) rows.push_back({Value::Int64(i)});
    s_.Ingest("r", rows);
    s_.Drain();
  };
  probe(4);  // keys 1 and 2 match
  ExpectSameResults(2);
  s_.Execute("insert into t values (3, 30), (1, 11)");
  probe(4);  // key 1 twice, 2, 3
  ExpectSameResults(4);
  s_.Execute("insert into t values (4, 40)");
  probe(4);
  ExpectSameResults(5);
}

// A query over two streams keeps its group table too; the stream-stream
// join runs HashJoin per firing.
TEST_F(ExecutorEquivalenceTest, TwoStreamGroupByKeepsGroupTable) {
  s_.Setup("create basket a (k int, v int)");
  s_.Setup("create basket b (k int, w double)");
  s_.AddQuery("q", "select x.k, count(*), sum(y.w), max(x.v) from "
              "[select * from a] as x join [select * from b] as y "
              "on x.k = y.k group by x.k");
  for (int batch = 0; batch < 3; ++batch) {
    std::vector<Row> left, right;
    for (int i = 0; i < 8 + 40 * batch; ++i) {
      left.push_back({Value::Int64(i % (3 + 20 * batch)), Value::Int64(i)});
      right.push_back({i % 7 == 3 ? Value::Null() : Value::Int64(i % 5),
                       Value::Double(i * 0.1)});
    }
    s_.Ingest("a", left);
    s_.Ingest("b", right);
    s_.Drain();
  }
  ExpectSameResults(3);
  inspect_ = [](const differential::Instance& inst, size_t) {
    if (inst.config.name != "kept") return;
    const Factory& f = *(*inst.engine->GetQuery(inst.queries[0]))->factory;
    EXPECT_NE(f.PipelineDescription().find("[int64 group table kept]"),
              std::string::npos)
        << f.PipelineDescription();
    EXPECT_GT(f.state_bytes(), 0u);
  };
}

// fresh_plan_state turns state keeping off: every firing starts from a new
// PlanState, and \explain says which of the two a query runs with.
TEST(SpecializeFallbackTest, DisabledByOption) {
  for (bool fresh : {false, true}) {
    Engine engine(Deterministic(fresh));
    ASSERT_TRUE(engine.ExecuteSql("create basket r (x int)").ok());
    auto q = engine.SubmitContinuousQuery(
        "q", "select x from [select * from r] as s where s.x < 5");
    ASSERT_TRUE(q.ok());
    auto info = engine.GetQuery(*q);
    ASSERT_TRUE(info.ok());
    const std::string desc = (*info)->factory->PipelineDescription();
    EXPECT_EQ(desc.rfind(fresh ? "plan, fresh state per firing:"
                               : "plan, state kept across firings:",
                         0),
              0u)
        << desc;
  }
}

TEST(SpecializeFallbackTest, PipelineDescriptionListsSteps) {
  Engine engine(Deterministic());
  ASSERT_TRUE(engine.ExecuteSql("create basket r (x int)").ok());
  auto q = engine.SubmitContinuousQuery(
      "q", "select x from [select * from r] as s where s.x < 5");
  ASSERT_TRUE(q.ok());
  auto info = engine.GetQuery(*q);
  ASSERT_TRUE(info.ok());
  std::string desc = (*info)->factory->PipelineDescription();
  EXPECT_NE(desc.find("Filter((x < 5)) [kernel range select]"),
            std::string::npos)
      << desc;
}

TEST(SpecializeFallbackTest, GroupByDescriptionNamesKey) {
  Engine engine(Deterministic());
  ASSERT_TRUE(engine.ExecuteSql("create basket r (sym int, qty int)").ok());
  auto q = engine.SubmitContinuousQuery(
      "vol",
      "select t.sym, sum(t.qty) as q from [select * from r] as t "
      "group by t.sym");
  ASSERT_TRUE(q.ok());
  auto info = engine.GetQuery(*q);
  ASSERT_TRUE(info.ok());
  std::string desc = (*info)->factory->PipelineDescription();
  EXPECT_NE(desc.find("Aggregate(groups=[sym], aggs=[sum(__agg_arg0)]) "
                      "[int64 group table kept]"),
            std::string::npos)
      << desc;
}

// \explain <query> prints the plan's node tree with what each node keeps.
TEST(ExplainTest, NodeTreeText) {
  Engine engine(Deterministic());
  ASSERT_TRUE(engine.ExecuteScript("create table t (k int, w int);\n"
                                   "create basket r (x int, name varchar);")
                  .ok());
  auto q = engine.SubmitContinuousQuery(
      "q",
      "select t.w, count(*) from [select * from r] as s join t "
      "on s.x = t.k where s.x < 5 group by t.w");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto info = engine.GetQuery(*q);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ((*info)->factory->PipelineDescription(),
            "plan, state kept across firings:\n"
            "  Project(w as w, count(*) as count(*))\n"
            "    Aggregate(groups=[w], aggs=[count(*)]) "
            "[int64 group table kept]\n"
            "      Project(w as w) [pass-through]\n"
            "        Filter((x < 5)) [kernel range select]\n"
            "          hash-join probe(left.x = right.k) "
            "[index kept, rebuilt when the build side grows]\n"
            "            Scan(__cq_in0_r) [stream]\n"
            "            Scan(t) [static]\n");
}

TEST(HashIndexTest, MatchesNaiveNestedLoop) {
  std::vector<int64_t> build = {5, 2, 5, 9, 2, 2, 7};
  std::vector<uint8_t> build_valid = {1, 1, 1, 0, 1, 1, 1};  // 9 is "null"
  std::vector<int64_t> probe = {2, 9, 5, 1, 7, 2};
  kernel::Int64HashIndex index;
  index.Build(build.data(), build_valid.data(), build.size());
  EXPECT_EQ(index.num_entries(), 6u);
  std::vector<size_t> pp, bp;
  index.Probe(probe.data(), nullptr, probe.size(), &pp, &bp);

  std::vector<size_t> want_pp, want_bp;
  for (size_t i = 0; i < probe.size(); ++i) {
    for (size_t j = 0; j < build.size(); ++j) {
      if (build_valid[j] && probe[i] == build[j]) {
        want_pp.push_back(i);
        want_bp.push_back(j);
      }
    }
  }
  EXPECT_EQ(pp, want_pp);
  EXPECT_EQ(bp, want_bp);
}

TEST(GroupTableTest, MatchesGroupByNumberingAcrossReuse) {
  kernel::Int64GroupTable table;
  // Three calls on one table: small, one that grows it mid-call, and a
  // selection-driven one over the grown table with stale slots.
  for (size_t distinct : {5u, 700u, 40u}) {
    Table t("", Schema({{"k", DataType::kInt64}}));
    for (size_t i = 0; i < 3 * distinct + 11; ++i) {
      if (i % 13 == 5) {
        ASSERT_TRUE(t.AppendRow({Value::Null()}).ok());
      } else {
        int64_t k = static_cast<int64_t>((i * 2654435761u) % distinct) - 3;
        ASSERT_TRUE(t.AppendRow({Value::Int64(k)}).ok());
      }
    }
    std::vector<size_t> sel;
    for (size_t i = 0; i < t.num_rows(); i += (distinct == 40u ? 2 : 1)) {
      sel.push_back(i);
    }
    auto want = GroupBy(*t.Take(sel), {0});
    ASSERT_TRUE(want.ok());
    const Bat& key = *t.column(0);
    std::vector<uint32_t> ids(sel.size());
    std::vector<size_t> reps;
    size_t groups = table.Group(key.int64_data().data(), key.validity_data(),
                                sel.data(), sel.size(), ids.data(), &reps);
    ASSERT_EQ(groups, want->num_groups);
    for (size_t k = 0; k < sel.size(); ++k) {
      EXPECT_EQ(ids[k], want->group_ids[k]) << k;
    }
    ASSERT_EQ(reps.size(), groups);
    for (size_t g = 0; g < groups; ++g) {
      EXPECT_EQ(reps[g], sel[want->representatives[g]]) << g;
    }
  }
  // Sized by the largest call's distinct keys, never by batch length.
  EXPECT_EQ(table.memory_bytes(), kernel::Int64GroupTable::EstimatedBytes(700));
}

}  // namespace
}  // namespace datacell
