// Specialized-vs-interpreted equivalence: every query shape the
// registration-time specializer (algebra/specialize.h) claims is run through
// two engines — one with plan specialization on, one forced onto the tuple
// interpreter — over identical input, and the delivered rows must match
// value-for-value (nulls and NaN compared structurally). The same binary is
// registered a second time in ctest with DATACELL_DISABLE_AVX2=1, so every
// assertion here is also verified against the forced-scalar kernel variants.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "adapters/sink.h"
#include "algebra/kernels.h"
#include "algebra/operators.h"
#include "core/engine.h"

namespace datacell {
namespace {

EngineOptions TwinOptions(bool specialize, size_t kernel_threads = 0) {
  EngineOptions opts;
  opts.use_wall_clock = false;  // lockstep clocks => identical ts columns
  opts.specialize_plans = specialize;
  opts.kernel_threads = kernel_threads;
  return opts;
}

/// Structural value equality: null only equals null, NaN equals NaN (the
/// SQL-comparison operator== would reject NaN against itself), everything
/// else by exact value. Doubles compare bitwise (so -0.0 != 0.0) on purpose:
/// the specialized kernels are required to be bit-identical to the
/// interpreter for the shapes this suite feeds them.
bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_double() && b.is_double()) {
    double x = a.double_value();
    double y = b.double_value();
    if (std::isnan(x) || std::isnan(y)) return std::isnan(x) && std::isnan(y);
    uint64_t xb, yb;
    std::memcpy(&xb, &x, sizeof(x));
    std::memcpy(&yb, &y, sizeof(y));
    return xb == yb;
  }
  return a == b;
}

std::string RowToString(const Row& r) {
  std::string s = "(";
  for (size_t i = 0; i < r.size(); ++i) {
    if (i > 0) s += ", ";
    s += r[i].is_null() ? "<null>" : r[i].ToString();
  }
  return s + ")";
}

/// Drives a specializing engine and an interpreting engine in lockstep:
/// same DDL, same continuous query, same ingests, same simulated-clock
/// advances — then asserts the sinks saw identical rows.
class TwinHarness {
 public:
  explicit TwinHarness(size_t kernel_threads = 0)
      : spec_(TwinOptions(true, kernel_threads)),
        interp_(TwinOptions(false, kernel_threads)) {}

  void Sql(const std::string& sql) {
    auto r1 = spec_.ExecuteSql(sql);
    ASSERT_TRUE(r1.ok()) << sql << " -> " << r1.status().ToString();
    auto r2 = interp_.ExecuteSql(sql);
    ASSERT_TRUE(r2.ok()) << sql << " -> " << r2.status().ToString();
  }

  void Submit(const std::string& sql) {
    auto q1 = spec_.SubmitContinuousQuery("q", sql);
    ASSERT_TRUE(q1.ok()) << sql << " -> " << q1.status().ToString();
    auto q2 = interp_.SubmitContinuousQuery("q", sql);
    ASSERT_TRUE(q2.ok()) << sql << " -> " << q2.status().ToString();
    spec_q_ = *q1;
    interp_q_ = *q2;
    spec_sink_ = std::make_shared<CollectingSink>();
    interp_sink_ = std::make_shared<CollectingSink>();
    ASSERT_TRUE(spec_.Subscribe(spec_q_, spec_sink_).ok());
    ASSERT_TRUE(interp_.Subscribe(interp_q_, interp_sink_).ok());
  }

  void Ingest(const std::string& stream, const Row& row) {
    ASSERT_TRUE(spec_.Ingest(stream, row).ok());
    ASSERT_TRUE(interp_.Ingest(stream, row).ok());
    spec_.simulated_clock()->Advance(1000);
    interp_.simulated_clock()->Advance(1000);
  }

  void IngestBatch(const std::string& stream, const std::vector<Row>& rows) {
    ASSERT_TRUE(spec_.IngestBatch(stream, rows).ok());
    ASSERT_TRUE(interp_.IngestBatch(stream, rows).ok());
    spec_.simulated_clock()->Advance(1000);
    interp_.simulated_clock()->Advance(1000);
  }

  void Drain() {
    spec_.Drain();
    interp_.Drain();
  }

  /// The shape under test must actually have specialized — a silent
  /// interpreter fallback would make the equivalence assertion vacuous.
  void ExpectSpecialized() {
    auto q = spec_.GetQuery(spec_q_);
    ASSERT_TRUE(q.ok());
    EXPECT_TRUE((*q)->factory->is_specialized())
        << "expected specialization, fell back: "
        << (*q)->factory->specialize_fallback();
  }

  void ExpectFallback(const std::string& reason_substring) {
    auto q = spec_.GetQuery(spec_q_);
    ASSERT_TRUE(q.ok());
    EXPECT_FALSE((*q)->factory->is_specialized());
    EXPECT_NE((*q)->factory->specialize_fallback().find(reason_substring),
              std::string::npos)
        << "fallback reason was: " << (*q)->factory->specialize_fallback();
  }

  void ExpectSameResults(size_t expect_at_least = 0) {
    std::vector<Row> got = spec_sink_->TakeRows();
    std::vector<Row> want = interp_sink_->TakeRows();
    ASSERT_EQ(got.size(), want.size());
    EXPECT_GE(got.size(), expect_at_least);
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].size(), want[i].size()) << "row " << i;
      for (size_t c = 0; c < got[i].size(); ++c) {
        EXPECT_TRUE(SameValue(got[i][c], want[i][c]))
            << "row " << i << ": specialized " << RowToString(got[i])
            << " vs interpreted " << RowToString(want[i]);
      }
    }
  }

  Engine spec_;
  Engine interp_;
  QueryId spec_q_ = 0;
  QueryId interp_q_ = 0;
  std::shared_ptr<CollectingSink> spec_sink_;
  std::shared_ptr<CollectingSink> interp_sink_;
};

class SpecializeEquivalenceTest : public ::testing::Test {
 protected:
  TwinHarness twin_;
};

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// --- filters -------------------------------------------------------------

TEST_F(SpecializeEquivalenceTest, IntRangeFilter) {
  twin_.Sql("create basket r (x int)");
  twin_.Submit("select x from [select * from r] as s where s.x < 5");
  twin_.ExpectSpecialized();
  for (int i = 0; i < 10; ++i) twin_.Ingest("r", {Value::Int64(i)});
  twin_.Drain();
  twin_.ExpectSameResults(5);
}

TEST_F(SpecializeEquivalenceTest, AllRowsSelected) {
  twin_.Sql("create basket r (x int)");
  twin_.Submit("select x from [select * from r] as s where s.x >= -100");
  twin_.ExpectSpecialized();
  for (int i = 0; i < 8; ++i) twin_.Ingest("r", {Value::Int64(i)});
  twin_.Drain();
  twin_.ExpectSameResults(8);
}

TEST_F(SpecializeEquivalenceTest, NoRowsSelected) {
  twin_.Sql("create basket r (x int)");
  twin_.Submit("select x from [select * from r] as s where s.x > 1000");
  twin_.ExpectSpecialized();
  for (int i = 0; i < 8; ++i) twin_.Ingest("r", {Value::Int64(i)});
  twin_.Drain();
  twin_.ExpectSameResults();
}

TEST_F(SpecializeEquivalenceTest, EmptyBatchFires) {
  twin_.Sql("create basket r (x int)");
  twin_.Submit("select x from [select * from r] as s where s.x < 5");
  twin_.ExpectSpecialized();
  twin_.Drain();  // nothing ingested
  twin_.ExpectSameResults();
  twin_.Ingest("r", {Value::Int64(1)});
  twin_.Drain();
  twin_.Drain();  // second drain sees an empty basket
  twin_.ExpectSameResults(1);
}

TEST_F(SpecializeEquivalenceTest, DoubleFilterWithNaN) {
  twin_.Sql("create basket r (y double)");
  twin_.Submit("select y from [select * from r] as s where s.y > 1.5");
  twin_.ExpectSpecialized();
  twin_.Ingest("r", {Value::Double(1.0)});
  twin_.Ingest("r", {Value::Double(kNaN)});
  twin_.Ingest("r", {Value::Double(2.5)});
  twin_.Ingest("r", {Value::Double(-0.0)});
  twin_.Ingest("r", {Value::Double(7.25)});
  twin_.Drain();
  twin_.ExpectSameResults(2);
}

TEST_F(SpecializeEquivalenceTest, NaNIsNotEqualToAnything) {
  twin_.Sql("create basket r (y double)");
  twin_.Submit("select y from [select * from r] as s where s.y <> 2.5");
  twin_.ExpectSpecialized();
  twin_.Ingest("r", {Value::Double(kNaN)});  // NaN <> v is true
  twin_.Ingest("r", {Value::Double(2.5)});
  twin_.Ingest("r", {Value::Double(3.0)});
  twin_.Drain();
  twin_.ExpectSameResults(2);
}

TEST_F(SpecializeEquivalenceTest, NotEqualWithNulls) {
  twin_.Sql("create basket r (x int)");
  twin_.Submit("select x from [select * from r] as s where s.x <> 3");
  twin_.ExpectSpecialized();
  twin_.Ingest("r", {Value::Int64(3)});
  twin_.Ingest("r", {Value::Null()});  // null <> 3 is null -> filtered out
  twin_.Ingest("r", {Value::Int64(4)});
  twin_.Drain();
  twin_.ExpectSameResults(1);
}

TEST_F(SpecializeEquivalenceTest, NullHeavyBatch) {
  twin_.Sql("create basket r (x int, y double)");
  twin_.Submit(
      "select x, y from [select * from r] as s where s.x < 100");
  twin_.ExpectSpecialized();
  for (int i = 0; i < 12; ++i) {
    if (i % 3 == 0) {
      twin_.Ingest("r", {Value::Null(), Value::Null()});
    } else if (i % 3 == 1) {
      twin_.Ingest("r", {Value::Int64(i), Value::Null()});
    } else {
      twin_.Ingest("r", {Value::Null(), Value::Double(i * 0.25)});
    }
  }
  twin_.Drain();
  twin_.ExpectSameResults(4);
}

TEST_F(SpecializeEquivalenceTest, StringEquality) {
  twin_.Sql("create basket r (name varchar)");
  twin_.Submit(
      "select name from [select * from r] as s where s.name = 'hit'");
  twin_.ExpectSpecialized();
  twin_.Ingest("r", {Value::String("hit")});
  twin_.Ingest("r", {Value::String("miss")});
  twin_.Ingest("r", {Value::Null()});
  twin_.Ingest("r", {Value::String("hit")});
  twin_.Drain();
  twin_.ExpectSameResults(2);
}

TEST_F(SpecializeEquivalenceTest, LikePattern) {
  twin_.Sql("create basket r (name varchar)");
  twin_.Submit(
      "select name from [select * from r] as s where s.name like '%ab%'");
  twin_.ExpectSpecialized();
  twin_.Ingest("r", {Value::String("drab")});
  twin_.Ingest("r", {Value::String("xyz")});
  twin_.Ingest("r", {Value::Null()});
  twin_.Ingest("r", {Value::String("abba")});
  twin_.Drain();
  twin_.ExpectSameResults(2);
}

TEST_F(SpecializeEquivalenceTest, AndOrNotCombinators) {
  twin_.Sql("create basket r (x int, y double)");
  twin_.Submit(
      "select x, y from [select * from r] as s "
      "where (s.x > 2 and s.x < 8) or not (s.y < 1.0)");
  twin_.ExpectSpecialized();
  for (int i = 0; i < 10; ++i) {
    twin_.Ingest("r", {Value::Int64(i), Value::Double(i * 0.25)});
  }
  twin_.Ingest("r", {Value::Null(), Value::Double(5.0)});
  twin_.Ingest("r", {Value::Int64(5), Value::Null()});
  twin_.Ingest("r", {Value::Null(), Value::Null()});
  twin_.Drain();
  twin_.ExpectSameResults(1);
}

TEST_F(SpecializeEquivalenceTest, IsNullIsNotNull) {
  twin_.Sql("create basket r (x int)");
  twin_.Submit("select x from [select * from r] as s where s.x is null");
  twin_.ExpectSpecialized();
  twin_.Ingest("r", {Value::Int64(1)});
  twin_.Ingest("r", {Value::Null()});
  twin_.Ingest("r", {Value::Int64(2)});
  twin_.Ingest("r", {Value::Null()});
  twin_.Drain();
  twin_.ExpectSameResults(2);
}

TEST_F(SpecializeEquivalenceTest, IsNotNullFilter) {
  twin_.Sql("create basket r (x int)");
  twin_.Submit(
      "select x from [select * from r] as s where s.x is not null");
  twin_.ExpectSpecialized();
  twin_.Ingest("r", {Value::Int64(1)});
  twin_.Ingest("r", {Value::Null()});
  twin_.Ingest("r", {Value::Int64(2)});
  twin_.Drain();
  twin_.ExpectSameResults(2);
}

TEST_F(SpecializeEquivalenceTest, BoolColumnFilter) {
  twin_.Sql("create basket r (flag bool, x int)");
  twin_.Submit("select x from [select * from r] as s where s.flag");
  twin_.ExpectSpecialized();
  twin_.Ingest("r", {Value::Bool(true), Value::Int64(1)});
  twin_.Ingest("r", {Value::Bool(false), Value::Int64(2)});
  twin_.Ingest("r", {Value::Null(), Value::Int64(3)});
  twin_.Ingest("r", {Value::Bool(true), Value::Int64(4)});
  twin_.Drain();
  twin_.ExpectSameResults(2);
}

// --- constant folding ----------------------------------------------------

TEST_F(SpecializeEquivalenceTest, ConstantTruePredicate) {
  twin_.Sql("create basket r (x int)");
  twin_.Submit("select x from [select * from r] as s where 1 < 2");
  twin_.ExpectSpecialized();
  for (int i = 0; i < 5; ++i) twin_.Ingest("r", {Value::Int64(i)});
  twin_.Drain();
  twin_.ExpectSameResults(5);
}

TEST_F(SpecializeEquivalenceTest, ConstantFalsePredicate) {
  twin_.Sql("create basket r (x int)");
  twin_.Submit("select x from [select * from r] as s where 1 > 2");
  twin_.ExpectSpecialized();
  for (int i = 0; i < 5; ++i) twin_.Ingest("r", {Value::Int64(i)});
  twin_.Drain();
  twin_.ExpectSameResults();
  EXPECT_EQ(twin_.spec_sink_->row_count(), 0u);
}

// --- projections ---------------------------------------------------------

TEST_F(SpecializeEquivalenceTest, ArithmeticProjections) {
  twin_.Sql("create basket r (x int, y double)");
  twin_.Submit(
      "select s.x + 1, 10 - s.x, s.x * 2, s.y * 2.0, s.y / 4.0 "
      "from [select * from r] as s where s.x >= 0");
  twin_.ExpectSpecialized();
  for (int i = 0; i < 6; ++i) {
    twin_.Ingest("r", {Value::Int64(i), Value::Double(i * 0.25)});
  }
  twin_.Ingest("r", {Value::Null(), Value::Double(1.0)});
  twin_.Drain();
  twin_.ExpectSameResults(6);
}

TEST_F(SpecializeEquivalenceTest, DivisionAndModuloByZero) {
  twin_.Sql("create basket r (x int, y double)");
  twin_.Submit(
      "select s.x / 0, s.x % 0, s.y / 0.0 "
      "from [select * from r] as s where s.x > -100");
  twin_.ExpectSpecialized();
  twin_.Ingest("r", {Value::Int64(7), Value::Double(2.5)});
  twin_.Ingest("r", {Value::Int64(-3), Value::Double(-1.25)});
  twin_.Drain();
  twin_.ExpectSameResults(2);
}

// --- aggregates ----------------------------------------------------------

TEST_F(SpecializeEquivalenceTest, ScalarAggregatesNoFilter) {
  twin_.Sql("create basket r (x int, y double)");
  twin_.Submit(
      "select count(*), count(x), sum(x), min(x), max(x), avg(x), "
      "sum(y), min(y), max(y) from [select * from r] as s");
  twin_.ExpectSpecialized();
  for (int i = 0; i < 9; ++i) {
    twin_.Ingest("r", {Value::Int64(i), Value::Double(i * 0.25)});
  }
  twin_.Ingest("r", {Value::Null(), Value::Null()});
  twin_.Drain();
  twin_.ExpectSameResults(1);
}

TEST_F(SpecializeEquivalenceTest, FusedFilterAggregate) {
  twin_.Sql("create basket r (x int, y double)");
  twin_.Submit(
      "select count(*), sum(y), min(y), max(y) "
      "from [select * from r] as s where s.x < 6");
  twin_.ExpectSpecialized();
  for (int i = 0; i < 12; ++i) {
    twin_.Ingest("r", {Value::Int64(i), Value::Double(i * 0.25)});
  }
  twin_.Drain();
  twin_.ExpectSameResults(1);
}

TEST_F(SpecializeEquivalenceTest, AggregateOverEmptyFire) {
  twin_.Sql("create basket r (x int)");
  twin_.Submit(
      "select count(*), sum(x), min(x) from [select * from r] as s "
      "where s.x > 100");
  twin_.ExpectSpecialized();
  for (int i = 0; i < 4; ++i) twin_.Ingest("r", {Value::Int64(i)});
  twin_.Drain();
  // Nothing passes the filter; both paths still emit one row of aggregate
  // identities (count 0, null sum/min).
  twin_.ExpectSameResults(1);
}

TEST_F(SpecializeEquivalenceTest, AggregateWithNaNValues) {
  twin_.Sql("create basket r (x int, y double)");
  twin_.Submit(
      "select count(y), sum(y), min(y), max(y) "
      "from [select * from r] as s where s.x >= 0");
  twin_.ExpectSpecialized();
  twin_.Ingest("r", {Value::Int64(0), Value::Double(1.25)});
  twin_.Ingest("r", {Value::Int64(1), Value::Double(kNaN)});
  twin_.Ingest("r", {Value::Int64(2), Value::Double(-3.5)});
  twin_.Drain();
  twin_.ExpectSameResults(1);
}

// --- joins ---------------------------------------------------------------

TEST_F(SpecializeEquivalenceTest, StreamTableJoin) {
  twin_.Sql("create table t (k int, v double)");
  twin_.Sql(
      "insert into t values (1, 0.25), (1, 0.5), (3, 0.75), (5, 1.0)");
  twin_.Sql("create basket r (x int)");
  twin_.Submit(
      "select s.x, t.v from [select * from r] as s join t on s.x = t.k");
  twin_.ExpectSpecialized();
  for (int i = 0; i < 7; ++i) twin_.Ingest("r", {Value::Int64(i)});
  twin_.Ingest("r", {Value::Null()});  // null keys never match
  twin_.Drain();
  // x=1 matches twice, x=3 and x=5 once each.
  twin_.ExpectSameResults(4);
}

TEST_F(SpecializeEquivalenceTest, JoinWithNullBuildKeys) {
  twin_.Sql("create table t (k int, v int)");
  twin_.Sql("insert into t values (2, 20), (null, 99), (2, 21)");
  twin_.Sql("create basket r (x int)");
  twin_.Submit(
      "select s.x, t.v from [select * from r] as s join t on s.x = t.k");
  twin_.ExpectSpecialized();
  twin_.Ingest("r", {Value::Int64(2)});
  twin_.Ingest("r", {Value::Int64(4)});
  twin_.Drain();
  twin_.ExpectSameResults(2);
}

TEST_F(SpecializeEquivalenceTest, JoinThenFilterThenAggregate) {
  twin_.Sql("create table t (k int, v double)");
  twin_.Sql("insert into t values (0, 0.5), (1, 1.5), (2, 2.5)");
  twin_.Sql("create basket r (x int)");
  twin_.Submit(
      "select count(*), sum(t.v) from [select * from r] as s "
      "join t on s.x = t.k where t.v > 1.0");
  twin_.ExpectSpecialized();
  for (int i = 0; i < 5; ++i) twin_.Ingest("r", {Value::Int64(i)});
  twin_.Drain();
  twin_.ExpectSameResults(1);
}

TEST(SpecializeParallelTest, GroupByMorselParallelBatch) {
  // Batches past the morsel size take the morsel-parallel aggregation on
  // both paths; the specialized stage must feed it the same group ids.
  TwinHarness twin(/*kernel_threads=*/2);
  twin.Sql("create basket r (k int, x int, y double)");
  twin.Submit(
      "select k, count(*), sum(y), max(y), avg(x) from [select * from r] as s "
      "where s.x >= 1 group by k");
  twin.ExpectSpecialized();
  std::vector<Row> rows;
  for (int i = 0; i < 150000; ++i) {
    rows.push_back({Value::Int64(i % 97), Value::Int64(i % 9),
                    Value::Double(i * 0.1)});
  }
  twin.IngestBatch("r", rows);
  twin.Drain();
  twin.ExpectSameResults(97);
  MetricsSnapshotData snap = twin.spec_.MetricsSnapshot();
  const CounterSnapshot* morsels =
      snap.FindCounter("datacell_kernel_morsels_total");
  ASSERT_NE(morsels, nullptr);
  EXPECT_GT(morsels->value, 0);
}

// --- fallback reasons ----------------------------------------------------

TEST_F(SpecializeEquivalenceTest, WindowedQueryFallsBack) {
  twin_.Sql("create basket r (x int)");
  twin_.Submit(
      "select sum(x) from [select * from r] as s window size 4");
  twin_.ExpectFallback("windowed");
  for (int i = 0; i < 8; ++i) twin_.Ingest("r", {Value::Int64(i)});
  twin_.Drain();
  // The factory's own plan falls back, but the window's partial and merge
  // plans are specialized on one twin only: still equivalent.
  twin_.ExpectSameResults(1);
}

TEST_F(SpecializeEquivalenceTest, GroupByMultiColumnKeyFallsBack) {
  twin_.Sql("create basket r (x int, y int)");
  twin_.Submit(
      "select x, y, count(*) from [select * from r] as s group by x, y");
  twin_.ExpectFallback("GROUP BY on 2 columns");
  for (int i = 0; i < 6; ++i) {
    twin_.Ingest("r", {Value::Int64(i % 2), Value::Int64(i % 3)});
  }
  twin_.Drain();
  twin_.ExpectSameResults(6);
}

TEST_F(SpecializeEquivalenceTest, GroupByStringKeyFallsBack) {
  twin_.Sql("create basket r (name varchar, x int)");
  twin_.Submit(
      "select name, sum(x) from [select * from r] as s group by name");
  twin_.ExpectFallback("GROUP BY key of type string");
  for (int i = 0; i < 6; ++i) {
    twin_.Ingest("r",
                 {Value::String(i % 2 == 0 ? "a" : "b"), Value::Int64(i)});
  }
  twin_.Drain();
  twin_.ExpectSameResults(2);
}

TEST_F(SpecializeEquivalenceTest, GroupByBoolKeyFallsBack) {
  twin_.Sql("create basket r (flag bool, x int)");
  twin_.Submit(
      "select flag, count(*) from [select * from r] as s group by flag");
  twin_.ExpectFallback("GROUP BY key of type bool");
  for (int i = 0; i < 6; ++i) {
    twin_.Ingest("r", {Value::Bool(i % 3 == 0), Value::Int64(i)});
  }
  twin_.Drain();
  twin_.ExpectSameResults(2);
}

// --- group-by --------------------------------------------------------------

TEST_F(SpecializeEquivalenceTest, GroupByEveryAggregateFunction) {
  twin_.Sql("create basket r (k int, v int, y double, b bool)");
  twin_.Submit(
      "select k, count(*), count(v), sum(v), min(v), max(v), avg(v), "
      "count(y), sum(y), min(y), max(y), avg(y), sum(b) "
      "from [select * from r] as s group by k");
  twin_.ExpectSpecialized();
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
  twin_.IngestBatch("r", rows);
  twin_.Drain();
  twin_.ExpectSameResults(7);
}

TEST_F(SpecializeEquivalenceTest, GroupByNullKeysAndNullValues) {
  twin_.Sql("create basket r (k int, v double)");
  twin_.Submit(
      "select k, count(*), count(v), sum(v), min(v), max(v), avg(v) "
      "from [select * from r] as s group by k");
  twin_.ExpectSpecialized();
  // All null keys form one group placed at the first null; group 5 sees
  // only null values (count 0, null sum/min/max/avg).
  twin_.IngestBatch("r", {{Value::Int64(1), Value::Double(0.5)},
                          {Value::Null(), Value::Double(1.25)},
                          {Value::Int64(5), Value::Null()},
                          {Value::Int64(1), Value::Null()},
                          {Value::Null(), Value::Null()},
                          {Value::Int64(5), Value::Null()},
                          {Value::Null(), Value::Double(-2.0)},
                          {Value::Int64(1), Value::Double(3.0)}});
  twin_.Drain();
  twin_.ExpectSameResults(3);
}

TEST_F(SpecializeEquivalenceTest, GroupByEmptyBatchAndSingleGroup) {
  twin_.Sql("create basket r (k int, v int)");
  twin_.Submit(
      "select k, sum(v), count(*) from [select * from r] as s group by k");
  twin_.ExpectSpecialized();
  twin_.Drain();  // nothing ingested: no groups, no rows
  twin_.ExpectSameResults();
  std::vector<Row> rows;
  for (int i = 0; i < 9; ++i) {
    rows.push_back({Value::Int64(42), Value::Int64(i)});
  }
  twin_.IngestBatch("r", rows);
  twin_.Drain();
  twin_.Drain();  // second drain sees an empty basket
  twin_.ExpectSameResults(1);
}

TEST_F(SpecializeEquivalenceTest, GroupByKeysOutgrowPreviousFiring) {
  twin_.Sql("create basket r (k int, v int)");
  twin_.Submit(
      "select k, count(*), max(v) from [select * from r] as s group by k");
  twin_.ExpectSpecialized();
  twin_.IngestBatch("r", {{Value::Int64(1), Value::Int64(1)},
                          {Value::Int64(2), Value::Int64(2)},
                          {Value::Int64(1), Value::Int64(3)}});
  twin_.Drain();
  auto q = twin_.spec_.GetQuery(twin_.spec_q_);
  ASSERT_TRUE(q.ok());
  size_t small = (*q)->factory->state_bytes_high_water();
  EXPECT_GT(small, 0u);  // the group table is metered
  // 600 distinct keys: the reused table must grow mid-firing and keep the
  // first-appearance order of the groups already placed.
  std::vector<Row> rows;
  for (int i = 0; i < 1200; ++i) {
    rows.push_back({Value::Int64((i * 7919) % 600), Value::Int64(i)});
  }
  twin_.IngestBatch("r", rows);
  twin_.Drain();
  EXPECT_GT((*q)->factory->state_bytes_high_water(), small);
  // A later small firing reuses the grown table with stale slots.
  twin_.IngestBatch("r", {{Value::Int64(599), Value::Int64(7)},
                          {Value::Int64(3), Value::Int64(8)}});
  twin_.Drain();
  twin_.ExpectSameResults(2 + 600 + 2);
}

TEST_F(SpecializeEquivalenceTest, GroupByExtremeAndNegativeKeys) {
  twin_.Sql("create basket r (k int, v int)");
  twin_.Submit(
      "select k, sum(v), min(v) from [select * from r] as s group by k");
  twin_.ExpectSpecialized();
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  std::vector<Row> rows;
  for (int64_t k : {hi, lo, int64_t{-1}, int64_t{0}, lo, int64_t{-7}, hi,
                    int64_t{-1}, lo + 1, hi - 1}) {
    rows.push_back({Value::Int64(k), Value::Int64(k % 1000)});
  }
  twin_.IngestBatch("r", rows);
  twin_.Drain();
  twin_.ExpectSameResults(7);
}

TEST_F(SpecializeEquivalenceTest, GroupByTimestampKey) {
  twin_.Sql("create basket r (at timestamp, v double)");
  twin_.Submit(
      "select at, count(*), avg(v) from [select * from r] as s group by at");
  twin_.ExpectSpecialized();
  std::vector<Row> rows;
  for (int i = 0; i < 12; ++i) {
    rows.push_back({Value::TimestampVal(1000000 * (i % 4)),
                    Value::Double(i * 0.3)});
  }
  twin_.IngestBatch("r", rows);
  twin_.Drain();
  twin_.ExpectSameResults(4);
}

TEST_F(SpecializeEquivalenceTest, FilterThenGroupBy) {
  twin_.Sql("create basket r (k int, x int, y double)");
  twin_.Submit(
      "select k, count(*), sum(y) from [select * from r] as s "
      "where s.x > 3 and s.y < 4.0 group by k");
  twin_.ExpectSpecialized();
  std::vector<Row> rows;
  for (int i = 0; i < 30; ++i) {
    Row row = {Value::Int64(i % 4), Value::Int64(i % 9),
               Value::Double(i * 0.2)};
    if (i % 5 == 4) row[0] = Value::Null();
    rows.push_back(std::move(row));
  }
  twin_.IngestBatch("r", rows);
  twin_.Drain();
  twin_.ExpectSameResults(1);
}

TEST_F(SpecializeEquivalenceTest, JoinThenGroupBy) {
  twin_.Sql("create table t (k int, sector int, w double)");
  twin_.Sql(
      "insert into t values (0, 10, 0.5), (1, 11, 1.5), (2, 10, 2.5), "
      "(2, 12, 0.25)");
  twin_.Sql("create basket r (x int, q int)");
  twin_.Submit(
      "select t.sector, count(*), sum(s.q), max(t.w) from "
      "[select * from r] as s join t on s.x = t.k group by t.sector");
  twin_.ExpectSpecialized();
  std::vector<Row> rows;
  for (int i = 0; i < 20; ++i) {
    rows.push_back({Value::Int64(i % 4), Value::Int64(i)});
  }
  twin_.IngestBatch("r", rows);
  twin_.Drain();
  twin_.ExpectSameResults(3);
}

TEST_F(SpecializeEquivalenceTest, GroupByPostProjectionReordersAndComputes) {
  twin_.Sql("create basket r (k int, v int)");
  twin_.Submit(
      "select sum(v) * 2, k, count(*) + 1, max(v) - 0.5 "
      "from [select * from r] as s group by k");
  twin_.ExpectSpecialized();
  std::vector<Row> rows;
  for (int i = 0; i < 15; ++i) {
    rows.push_back({Value::Int64(i % 3), Value::Int64(i * i)});
  }
  rows[4][1] = Value::Null();
  twin_.IngestBatch("r", rows);
  twin_.Drain();
  twin_.ExpectSameResults(3);
}

TEST(SpecializeFallbackTest, DisabledByOption) {
  EngineOptions opts = TwinOptions(false);
  Engine engine(opts);
  ASSERT_TRUE(engine.ExecuteSql("create basket r (x int)").ok());
  auto q = engine.SubmitContinuousQuery(
      "q", "select x from [select * from r] as s where s.x < 5");
  ASSERT_TRUE(q.ok());
  auto info = engine.GetQuery(*q);
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE((*info)->factory->is_specialized());
  EXPECT_EQ((*info)->factory->specialize_fallback(),
            "specialization disabled");
  EXPECT_NE((*info)->factory->PipelineDescription().find("interpreter"),
            std::string::npos);
}

TEST(SpecializeFallbackTest, PipelineDescriptionListsSteps) {
  Engine engine(TwinOptions(true));
  ASSERT_TRUE(engine.ExecuteSql("create basket r (x int)").ok());
  auto q = engine.SubmitContinuousQuery(
      "q", "select x from [select * from r] as s where s.x < 5");
  ASSERT_TRUE(q.ok());
  auto info = engine.GetQuery(*q);
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE((*info)->factory->is_specialized());
  std::string desc = (*info)->factory->PipelineDescription();
  EXPECT_NE(desc.find("specialized pipeline"), std::string::npos);
  EXPECT_NE(desc.find("filter"), std::string::npos);
}

TEST(SpecializeMetricsTest, SpecializedQueriesCounter) {
  Engine engine(TwinOptions(true));
  ASSERT_TRUE(engine.ExecuteSql("create basket r (x int, name varchar)").ok());
  auto q1 = engine.SubmitContinuousQuery(
      "a", "select x from [select * from r] as s where s.x < 5");
  ASSERT_TRUE(q1.ok());
  auto q2 = engine.SubmitContinuousQuery(
      "b", "select name, count(*) from [select * from r] as s group by name");
  ASSERT_TRUE(q2.ok());  // string key falls back -> not counted
  MetricsSnapshotData snap = engine.MetricsSnapshot();
  const CounterSnapshot* c = snap.FindCounter("datacell_specialized_queries");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 1);
  auto q3 = engine.SubmitContinuousQuery(
      "c", "select x, count(*) from [select * from r] as s group by x");
  ASSERT_TRUE(q3.ok());  // int key specializes -> counted
  snap = engine.MetricsSnapshot();
  c = snap.FindCounter("datacell_specialized_queries");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 2);
}

TEST(SpecializeFallbackTest, GroupByDescriptionNamesKey) {
  Engine engine(TwinOptions(true));
  ASSERT_TRUE(engine.ExecuteSql("create basket r (sym int, qty int)").ok());
  auto q = engine.SubmitContinuousQuery(
      "vol",
      "select t.sym, sum(t.qty) as q from [select * from r] as t "
      "group by t.sym");
  ASSERT_TRUE(q.ok());
  auto info = engine.GetQuery(*q);
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE((*info)->factory->is_specialized());
  std::string desc = (*info)->factory->PipelineDescription();
  EXPECT_NE(desc.find("aggregate: sum(qty) group by sym"), std::string::npos)
      << desc;
}

// --- kernel scalar vs AVX2 bit-equality ---------------------------------

class KernelVariantTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kernel::HasAvx2()) {
      GTEST_SKIP() << "AVX2 unavailable or disabled; scalar-only run";
    }
  }
};

TEST_F(KernelVariantTest, FilterValuesInt64Identical) {
  std::vector<int64_t> data;
  for (size_t i = 0; i < 1027; ++i) {
    data.push_back(static_cast<int64_t>((i * 2654435761u) % 1000) - 500);
  }
  std::vector<int64_t> a(data.size()), b(data.size());
  size_t ka = kernel::FilterValuesInt64Scalar(data.data(), -100, 250,
                                              data.size(), a.data());
  size_t kb = kernel::FilterValuesInt64Avx2(data.data(), -100, 250,
                                            data.size(), b.data());
  ASSERT_EQ(ka, kb);
  for (size_t i = 0; i < ka; ++i) EXPECT_EQ(a[i], b[i]) << i;
}

TEST_F(KernelVariantTest, FilterValuesDoubleIdenticalWithNaN) {
  std::vector<double> data;
  for (size_t i = 0; i < 517; ++i) {
    data.push_back(i % 11 == 0 ? std::numeric_limits<double>::quiet_NaN()
                               : (static_cast<double>(i % 97) - 48) * 0.25);
  }
  std::vector<double> a(data.size()), b(data.size());
  size_t ka = kernel::FilterValuesDoubleScalar(data.data(), -5.0, 5.0,
                                               data.size(), a.data());
  size_t kb = kernel::FilterValuesDoubleAvx2(data.data(), -5.0, 5.0,
                                             data.size(), b.data());
  ASSERT_EQ(ka, kb);
  for (size_t i = 0; i < ka; ++i) {
    EXPECT_EQ(a[i], b[i]) << i;  // NaN never passes, so == is safe
  }
}

TEST_F(KernelVariantTest, FilterAggVariantsBitIdentical) {
  constexpr size_t kN = 773;
  std::vector<int64_t> fi(kN);
  std::vector<double> fd(kN);
  std::vector<int64_t> vi(kN);
  std::vector<double> vd(kN);
  for (size_t i = 0; i < kN; ++i) {
    fi[i] = static_cast<int64_t>((i * 48271) % 200) - 100;
    fd[i] = static_cast<double>(fi[i]) * 0.25;
    vi[i] = static_cast<int64_t>(i) - 300;
    vd[i] = static_cast<double>(i) * 0.5 - 90.0;
  }
  kernel::FilterAggResult s, v;

  s = {}; v = {};
  kernel::FilterAggInt64Int64Scalar(fi.data(), -50, 50, vi.data(), kN, &s);
  kernel::FilterAggInt64Int64Avx2(fi.data(), -50, 50, vi.data(), kN, &v);
  EXPECT_EQ(s.count, v.count);
  EXPECT_EQ(s.sum, v.sum);
  EXPECT_EQ(s.min, v.min);
  EXPECT_EQ(s.max, v.max);

  s = {}; v = {};
  kernel::FilterAggInt64DoubleScalar(fi.data(), -50, 50, vd.data(), kN, &s);
  kernel::FilterAggInt64DoubleAvx2(fi.data(), -50, 50, vd.data(), kN, &v);
  EXPECT_EQ(s.count, v.count);
  EXPECT_EQ(s.sum, v.sum);
  EXPECT_EQ(s.min, v.min);
  EXPECT_EQ(s.max, v.max);

  s = {}; v = {};
  kernel::FilterAggDoubleInt64Scalar(fd.data(), -12.5, 12.5, vi.data(), kN,
                                     &s);
  kernel::FilterAggDoubleInt64Avx2(fd.data(), -12.5, 12.5, vi.data(), kN, &v);
  EXPECT_EQ(s.count, v.count);
  EXPECT_EQ(s.sum, v.sum);
  EXPECT_EQ(s.min, v.min);
  EXPECT_EQ(s.max, v.max);

  s = {}; v = {};
  kernel::FilterAggDoubleDoubleScalar(fd.data(), -12.5, 12.5, vd.data(), kN,
                                      &s);
  kernel::FilterAggDoubleDoubleAvx2(fd.data(), -12.5, 12.5, vd.data(), kN,
                                    &v);
  EXPECT_EQ(s.count, v.count);
  EXPECT_EQ(s.sum, v.sum);
  EXPECT_EQ(s.min, v.min);
  EXPECT_EQ(s.max, v.max);
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
