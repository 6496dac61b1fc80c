#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "core/window.h"
#include "differential.h"
#include "sql/parser.h"

namespace datacell {
namespace {

class WindowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema basket_schema({{"k", DataType::kInt64},
                          {"v", DataType::kInt64},
                          {"ts", DataType::kTimestamp}});
    ASSERT_TRUE(
        catalog_.CreateRelation("r", basket_schema, RelationKind::kBasket)
            .ok());
  }

  sql::CompiledQuery Compile(const std::string& sql) {
    auto stmt = sql::ParseStatement(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    sql::Planner planner(&catalog_);
    auto q = planner.CompileSelect(*stmt->select);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return std::move(*q);
  }

  /// Batch of (k, v, ts) tuples in basket layout.
  TablePtr Batch(const std::vector<std::array<int64_t, 3>>& rows) {
    auto t = std::make_shared<Table>(
        "", Schema({{"k", DataType::kInt64},
                    {"v", DataType::kInt64},
                    {"ts", DataType::kTimestamp}}));
    for (const auto& r : rows) {
      EXPECT_TRUE(t->AppendRow({Value::Int64(r[0]), Value::Int64(r[1]),
                                Value::TimestampVal(r[2])})
                      .ok());
    }
    return t;
  }

  Catalog catalog_;
};

TEST_F(WindowTest, TumblingCountSum) {
  auto q = Compile(
      "select sum(v) as s from [select * from r] as w window size 4");
  auto exec = WindowExecutor::Create(q, WindowMode::kReEvaluation, {});
  ASSERT_TRUE(exec.ok());
  auto out = (*exec)->Advance(*Batch({{0, 1, 0}, {0, 2, 0}, {0, 3, 0}}));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->num_rows(), 0u);  // window incomplete
  const size_t row_bytes =
      static_cast<size_t>(q.inputs[0].basket_schema.EstimatedRowBytes(32));
  EXPECT_EQ((*exec)->StateBytes(32), 3 * row_bytes);
  out = (*exec)->Advance(*Batch({{0, 4, 0}, {0, 5, 0}}));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ((*out)->num_rows(), 1u);
  EXPECT_EQ((*out)->GetRow(0)[0], Value::Double(10));  // 1+2+3+4
  EXPECT_EQ((*exec)->StateBytes(32), row_bytes);       // the 5 waits
}

TEST_F(WindowTest, SlidingCountWindows) {
  auto q = Compile(
      "select count(*) as c, sum(v) as s from [select * from r] as w "
      "window size 4 slide 2");
  auto exec = WindowExecutor::Create(q, WindowMode::kReEvaluation, {});
  ASSERT_TRUE(exec.ok());
  // 8 tuples -> windows [1..4], [3..6], [5..8].
  std::vector<std::array<int64_t, 3>> rows;
  for (int64_t i = 1; i <= 8; ++i) rows.push_back({0, i, 0});
  auto out = (*exec)->Advance(*Batch(rows));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ((*out)->num_rows(), 3u);
  EXPECT_EQ((*out)->GetRow(0)[1], Value::Double(1 + 2 + 3 + 4));
  EXPECT_EQ((*out)->GetRow(1)[1], Value::Double(3 + 4 + 5 + 6));
  EXPECT_EQ((*out)->GetRow(2)[1], Value::Double(5 + 6 + 7 + 8));
}

TEST_F(WindowTest, IncrementalRequiresAggregateShape) {
  auto plain = Compile(
      "select k, v from [select * from r] as w window size 4");
  EXPECT_FALSE(WindowExecutor::Create(plain, WindowMode::kIncremental, {}).ok());
  // kAuto falls back to re-evaluation.
  auto exec = WindowExecutor::Create(plain, WindowMode::kAuto, {});
  ASSERT_TRUE(exec.ok());
  EXPECT_STREQ((*exec)->mode_name(), "reeval");
}

TEST_F(WindowTest, IncrementalRequiresDividingSlide) {
  auto q = Compile(
      "select sum(v) from [select * from r] as w window size 10 slide 3");
  EXPECT_FALSE(WindowExecutor::Create(q, WindowMode::kIncremental, {}).ok());
  auto exec = WindowExecutor::Create(q, WindowMode::kAuto, {});
  ASSERT_TRUE(exec.ok());
  EXPECT_STREQ((*exec)->mode_name(), "reeval");
}

TEST_F(WindowTest, IncrementalPicksUpAggregatePlans) {
  auto q = Compile(
      "select k, sum(v) as s from [select * from r] as w group by k "
      "window size 6 slide 2");
  auto exec = WindowExecutor::Create(q, WindowMode::kAuto, {});
  ASSERT_TRUE(exec.ok());
  EXPECT_STREQ((*exec)->mode_name(), "incremental");
}

TEST_F(WindowTest, IncrementalScalarSum) {
  auto q = Compile(
      "select sum(v) as s from [select * from r] as w window size 4 slide 2");
  auto exec = WindowExecutor::Create(q, WindowMode::kIncremental, {});
  ASSERT_TRUE(exec.ok());
  std::vector<std::array<int64_t, 3>> rows;
  for (int64_t i = 1; i <= 8; ++i) rows.push_back({0, i, 0});
  auto out = (*exec)->Advance(*Batch(rows));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ((*out)->num_rows(), 3u);
  EXPECT_EQ((*out)->GetRow(0)[0], Value::Double(10));
  EXPECT_EQ((*out)->GetRow(1)[0], Value::Double(18));
  EXPECT_EQ((*out)->GetRow(2)[0], Value::Double(26));
}

TEST_F(WindowTest, IncrementalMinMaxSurvivesExpiry) {
  // min/max cannot be maintained by subtraction; the basic-window model
  // recombines per-chunk summaries, so expiring the max-holding chunk must
  // produce the correct new max.
  auto q = Compile(
      "select max(v) as m from [select * from r] as w window size 4 slide 2");
  auto exec = WindowExecutor::Create(q, WindowMode::kIncremental, {});
  ASSERT_TRUE(exec.ok());
  // chunks: [9 1] [2 3] [4 5] -> windows [9 1 2 3] max 9, [2 3 4 5] max 5.
  auto out = (*exec)->Advance(
      *Batch({{0, 9, 0}, {0, 1, 0}, {0, 2, 0}, {0, 3, 0}, {0, 4, 0}, {0, 5, 0}}));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ((*out)->num_rows(), 2u);
  EXPECT_EQ((*out)->GetRow(0)[0], Value::Double(9));
  EXPECT_EQ((*out)->GetRow(1)[0], Value::Double(5));
}

TEST_F(WindowTest, TimeWindowsCloseOnWatermark) {
  auto q = Compile(
      "select count(*) as c from [select * from r] as w "
      "window range 10 seconds slide 10 seconds");
  auto exec = WindowExecutor::Create(q, WindowMode::kReEvaluation, {});
  ASSERT_TRUE(exec.ok());
  const int64_t kSec = 1000000;
  // Tuples at 1s, 3s, 9s: window [1s, 11s) not yet closed.
  auto out = (*exec)->Advance(
      *Batch({{0, 1, 1 * kSec}, {0, 2, 3 * kSec}, {0, 3, 9 * kSec}}));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->num_rows(), 0u);
  // A tuple at 12s closes it.
  out = (*exec)->Advance(*Batch({{0, 4, 12 * kSec}}));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ((*out)->num_rows(), 1u);
  EXPECT_EQ((*out)->GetRow(0)[0], Value::Int64(3));
}

TEST_F(WindowTest, TimeWindowsHandleOutOfOrder) {
  auto q = Compile(
      "select count(*) as c from [select * from r] as w "
      "window range 10 seconds slide 10 seconds");
  auto exec = WindowExecutor::Create(q, WindowMode::kReEvaluation, {});
  ASSERT_TRUE(exec.ok());
  const int64_t kSec = 1000000;
  // Out-of-order arrivals within the same advance: 8s before 2s.
  auto out = (*exec)->Advance(
      *Batch({{0, 1, 8 * kSec}, {0, 2, 2 * kSec}, {0, 3, 13 * kSec}}));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ((*out)->num_rows(), 1u);
  // Window anchored at min ts (2s): [2, 12) holds both 8s and 2s.
  EXPECT_EQ((*out)->GetRow(0)[0], Value::Int64(2));
}

TEST_F(WindowTest, TimeIncrementalMatchesReEval) {
  const int64_t kSec = 1000000;
  auto q = Compile(
      "select k, count(*) as c, sum(v) as s, min(v) as mn, max(v) as mx "
      "from [select * from r] as w group by k order by k "
      "window range 8 seconds slide 2 seconds");
  auto reeval = WindowExecutor::Create(q, WindowMode::kReEvaluation, {});
  auto incr = WindowExecutor::Create(q, WindowMode::kIncremental, {});
  ASSERT_TRUE(reeval.ok());
  ASSERT_TRUE(incr.ok()) << incr.status().ToString();
  EXPECT_STREQ((*incr)->mode_name(), "incremental");

  Rng rng(404);
  Timestamp now = 0;
  for (int batch = 0; batch < 40; ++batch) {
    int n = static_cast<int>(rng.Uniform(1, 9));
    std::vector<std::array<int64_t, 3>> rows;
    for (int i = 0; i < n; ++i) {
      // Mild disorder: up to 1.5s backwards jitter.
      Timestamp jitter = rng.Uniform(0, 1500) * 1000;
      rows.push_back({rng.Uniform(0, 2), rng.Uniform(0, 100),
                      std::max<Timestamp>(0, now - jitter)});
      now += rng.Uniform(100, 900) * 1000;  // 0.1-0.9s forward per tuple
    }
    auto a = (*reeval)->Advance(*Batch(rows));
    auto b = (*incr)->Advance(*Batch(rows));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ((*a)->num_rows(), (*b)->num_rows()) << "batch " << batch;
    for (size_t row = 0; row < (*a)->num_rows(); ++row) {
      Row ra = (*a)->GetRow(row);
      Row rb = (*b)->GetRow(row);
      for (size_t col = 0; col < ra.size(); ++col) {
        EXPECT_EQ(ra[col], rb[col]) << "row " << row << " col " << col;
      }
    }
  }
  (void)kSec;
}

TEST_F(WindowTest, TimeIncrementalTumbling) {
  const int64_t kSec = 1000000;
  auto q = Compile(
      "select sum(v) as s from [select * from r] as w "
      "window range 2 seconds slide 2 seconds");
  auto exec = WindowExecutor::Create(q, WindowMode::kIncremental, {});
  ASSERT_TRUE(exec.ok());
  // Window [0s,2s): values 1,2. Window [2s,4s): value 3. Close with 5s.
  auto out = (*exec)->Advance(*Batch({{0, 1, 0},
                                      {0, 2, 1 * kSec},
                                      {0, 3, 2 * kSec},
                                      {0, 4, 5 * kSec}}));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ((*out)->num_rows(), 2u);
  EXPECT_EQ((*out)->GetRow(0)[0], Value::Double(3));
  EXPECT_EQ((*out)->GetRow(1)[0], Value::Double(3));
}

TEST_F(WindowTest, TimeWindowsAcrossSilentGap) {
  const int64_t kSec = 1000000;
  // A long silence between bursts: both evaluation modes must emit the same
  // windows, including the empty ones the gap produces.
  auto q = Compile(
      "select count(*) as c from [select * from r] as w "
      "window range 4 seconds slide 4 seconds");
  auto reeval = WindowExecutor::Create(q, WindowMode::kReEvaluation, {});
  auto incr = WindowExecutor::Create(q, WindowMode::kIncremental, {});
  ASSERT_TRUE(reeval.ok());
  ASSERT_TRUE(incr.ok());
  std::vector<std::array<int64_t, 3>> burst1 = {
      {0, 1, 0}, {0, 2, 1 * kSec}, {0, 3, 3 * kSec}};
  std::vector<std::array<int64_t, 3>> burst2 = {{0, 4, 21 * kSec}};
  for (auto* exec : {&*reeval, &*incr}) {
    auto out1 = (**exec).Advance(*Batch(burst1));
    ASSERT_TRUE(out1.ok());
    EXPECT_EQ((*out1)->num_rows(), 0u);  // first window still open
    auto out2 = (**exec).Advance(*Batch(burst2));
    ASSERT_TRUE(out2.ok());
    // Windows [0,4)=3, [4,8)=0, [8,12)=0, [12,16)=0, [16,20)=0 — five
    // closed windows; the scalar count emits one row for each.
    ASSERT_EQ((*out2)->num_rows(), 5u);
    EXPECT_EQ((*out2)->GetRow(0)[0], Value::Int64(3));
    for (size_t i = 1; i < 5; ++i) {
      EXPECT_EQ((*out2)->GetRow(i)[0], Value::Int64(0));
    }
  }
}

TEST_F(WindowTest, GroupedEmptyWindowEmitsNoRows) {
  auto q = Compile(
      "select k, count(*) as c from [select * from r] as w group by k "
      "window range 2 seconds slide 2 seconds");
  const int64_t kSec = 1000000;
  auto exec = WindowExecutor::Create(q, WindowMode::kIncremental, {});
  ASSERT_TRUE(exec.ok());
  // One tuple at 0s, next at 5s: window [0,2) has one group row; window
  // [2,4) is empty and grouped aggregation emits nothing for it.
  auto out = (*exec)->Advance(*Batch({{1, 1, 0}, {2, 2, 5 * kSec}}));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ((*out)->num_rows(), 1u);
  EXPECT_EQ((*out)->GetRow(0)[0], Value::Int64(1));
}

TEST_F(WindowTest, LateTuplesCountedInBothModes) {
  const int64_t kSec = 1000000;
  auto q = Compile(
      "select count(*) as c from [select * from r] as w "
      "window range 2 seconds slide 2 seconds");
  for (WindowMode mode : {WindowMode::kReEvaluation, WindowMode::kIncremental}) {
    auto exec = WindowExecutor::Create(q, mode, {});
    ASSERT_TRUE(exec.ok());
    SCOPED_TRACE((*exec)->mode_name());
    // The tuple at 3s closes [0s, 2s); the tuple at 1s then arrives after
    // the only window it belongs to was emitted.
    auto out = (*exec)->Advance(*Batch({{0, 1, 0}, {0, 2, 3 * kSec}}));
    ASSERT_TRUE(out.ok());
    ASSERT_EQ((*out)->num_rows(), 1u);
    EXPECT_EQ((*exec)->late_dropped(), 0);
    out = (*exec)->Advance(*Batch({{0, 3, 1 * kSec}, {0, 4, 5 * kSec}}));
    ASSERT_TRUE(out.ok());
    EXPECT_EQ((*exec)->late_dropped(), 1);
    // [2s, 4s) holds only the tuple at 3s.
    ASSERT_EQ((*out)->num_rows(), 1u);
    EXPECT_EQ((*out)->GetRow(0)[0], Value::Int64(1));
  }
}

TEST_F(WindowTest, CreateRejectsNonWindowed) {
  auto q = Compile("select * from [select * from r] as w");
  EXPECT_FALSE(WindowExecutor::Create(q, WindowMode::kAuto, {}).ok());
}

// Property: incremental evaluation produces exactly the same window results
// as re-evaluation — the core §3.1 equivalence — and so does every other
// execution configuration of the differential harness. Values stay
// integral, so sums are exact and rows compare value for value.
enum class Shape : uint8_t {
  kOrdered,    // group by k order by k
  kHaving,     // a filter above the aggregate
  kTopN,       // order by + limit
  kStringKey,  // group by a string key: no kept group table
  kUnordered,  // no order by: both modes emit groups in first-appearance order
};

struct EquivParam {
  int size;
  int slide;
  int groups;
  bool filtered;
  Shape shape = Shape::kOrdered;  // in the padding: the struct stays 16 bytes
};

class WindowEquivalenceTest : public ::testing::TestWithParam<EquivParam> {};

TEST_P(WindowEquivalenceTest, IncrementalMatchesReEval) {
  const EquivParam p = GetParam();
  const std::string key = p.shape == Shape::kStringKey ? "name" : "k";
  std::string sql = "select " + key +
                    ", count(*) as c, sum(v) as s, min(v) as mn, max(v) as "
                    "mx, avg(v) as a from [select * from r] as w ";
  if (p.filtered) sql += "where v > 10 ";
  sql += "group by " + key + " ";
  switch (p.shape) {
    case Shape::kOrdered:
    case Shape::kStringKey:
      sql += "order by " + key + " ";
      break;
    case Shape::kHaving:
      sql += "having count(*) > 1 order by k ";
      break;
    case Shape::kTopN:
      sql += "order by s desc, k limit 2 ";
      break;
    case Shape::kUnordered:
      break;
  }
  sql += "window size " + std::to_string(p.size) + " slide " +
         std::to_string(p.slide);
  differential::Scenario s;
  s.Setup("create basket r (k int, name varchar, v int)");
  s.AddQuery("w", sql);

  Rng rng(p.size * 1000 + p.slide);
  // Feed in random-sized batches so chunk boundaries cross batch boundaries.
  int remaining = 200;
  while (remaining > 0) {
    int batch = static_cast<int>(rng.Uniform(1, 13));
    batch = std::min(batch, remaining);
    std::vector<Row> rows;
    for (int i = 0; i < batch; ++i) {
      const int64_t k = rng.Uniform(0, p.groups - 1);
      rows.push_back({Value::Int64(k), Value::String("g" + std::to_string(k)),
                      Value::Int64(rng.Uniform(0, 100))});
    }
    remaining -= batch;
    s.Ingest("r", std::move(rows));
    s.Drain();
  }
  // The incremental configurations, with fresh and with kept plan state
  // (the engine's default), must really run the basic-window model, in
  // lockstep with the re-evaluating reference.
  std::map<std::string, std::string> mode, describe;  // by config
  s.inspect = [&](const differential::Instance& inst, size_t) {
    if (inst.config.name != "incremental" && inst.config.name != "default") {
      return;
    }
    const Factory& f = *(*inst.engine->GetQuery(inst.queries[0]))->factory;
    mode[inst.config.name] = f.window_mode_name();
    describe[inst.config.name] = f.window()->Describe();
  };
  differential::Report r = differential::Run(s);
  EXPECT_TRUE(r.ok()) << r.ToString();
  EXPECT_EQ(mode["incremental"], "incremental");
  EXPECT_EQ(mode["default"], "incremental");
  // A string key groups through GroupBy on every run: no kept group table.
  EXPECT_EQ(describe["default"].find("group table kept") == std::string::npos,
            p.shape == Shape::kStringKey)
      << describe["default"];
  EXPECT_GT(r.total_rows(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WindowEquivalenceTest,
    ::testing::Values(EquivParam{8, 8, 3, false}, EquivParam{8, 4, 3, false},
                      EquivParam{8, 2, 1, false}, EquivParam{16, 4, 5, true},
                      EquivParam{32, 8, 2, true}, EquivParam{4, 1, 4, false},
                      EquivParam{12, 6, 1, true}));

INSTANTIATE_TEST_SUITE_P(
    Queries, WindowEquivalenceTest,
    ::testing::Values(EquivParam{8, 2, 4, false, Shape::kHaving},
                      EquivParam{12, 4, 5, true, Shape::kHaving},
                      EquivParam{8, 4, 4, false, Shape::kTopN},
                      EquivParam{16, 2, 6, true, Shape::kTopN},
                      EquivParam{8, 2, 3, false, Shape::kStringKey},
                      EquivParam{6, 3, 4, true, Shape::kStringKey},
                      EquivParam{8, 2, 4, false, Shape::kUnordered},
                      EquivParam{4, 4, 3, true, Shape::kUnordered}));

}  // namespace
}  // namespace datacell
