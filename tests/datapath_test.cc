// Zero-copy data path tests: allocation-regression proof for the
// steady-state pipeline, heap retention of an idle engine, and equivalence of
// the columnar fast paths against the legacy row-at-a-time paths.

#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <charconv>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "adapters/channel.h"
#include "adapters/csv.h"
#include "adapters/generator.h"
#include "adapters/sink.h"
#include "algebra/kernels.h"
#include "common/check.h"
#include "core/basket.h"
#include "core/engine.h"
#include "core/shard.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "storage/column_batch.h"

// The global allocation counter is only meaningful when neither a sanitizer
// nor the debug-check layer is active: sanitizers own the allocator, and the
// lock-order checker heap-allocates its bookkeeping on hot paths.
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__) && \
    !DATACELL_DEBUG_CHECKS_ENABLED
#define DATACELL_COUNT_ALLOCS 1
#else
#define DATACELL_COUNT_ALLOCS 0
#endif

#if DATACELL_COUNT_ALLOCS

namespace {
std::atomic<int64_t> g_alloc_count{0};
// Bytes currently held through operator new (malloc_usable_size, so an
// allocation and its release net out exactly).
std::atomic<int64_t> g_live_bytes{0};

void* CountedAlloc(std::size_t n) {
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}

void CountedFree(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

// The counting operators pair malloc with free deliberately; gcc flags the
// free() because it pattern-matches delete-of-new.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }

#pragma GCC diagnostic pop

#endif  // DATACELL_COUNT_ALLOCS

namespace datacell {
namespace {

Schema TwoIntSchema() {
  return Schema({{"x", DataType::kInt64}, {"v", DataType::kInt64}});
}

/// Rows of `t` rendered as strings — a representation-independent view for
/// equivalence assertions (nulls render distinctly from values).
std::vector<std::string> RowStrings(const Table& t) {
  std::vector<std::string> out;
  out.reserve(t.num_rows());
  for (size_t i = 0; i < t.num_rows(); ++i) {
    std::string s;
    for (size_t c = 0; c < t.num_columns(); ++c) {
      const Bat& col = *t.column(c);
      s += col.IsNull(i) ? "<null>" : col.GetValue(i).ToString();
      s.push_back('|');
    }
    out.push_back(std::move(s));
  }
  return out;
}

// --- allocation regression -------------------------------------------------

// One full pipeline round on fixed-width columns: columnar ingest with
// buffer swap, stealing drain, kernel select, position gather, move-append
// to the output basket, stealing drain on the emitter side. After warm-up
// every buffer involved ping-pongs between the stages at its high-water
// capacity, so the steady state must perform zero heap allocations.
TEST(DatapathAllocTest, SteadyStatePipelineRoundIsAllocationFree) {
#if !DATACELL_COUNT_ALLOCS
  GTEST_SKIP() << "allocation counting disabled under sanitizers or "
                  "debug-check builds";
#else
  constexpr size_t kRows = 1024;
  Basket ingest(Basket::MakeBasketTable("in", TwoIntSchema()));
  Basket output(Basket::MakeBasketTable("out", TwoIntSchema()));
  ColumnBatch batch(TwoIntSchema());
  Table scratch("scratch", ingest.schema());
  Table result("result", TwoIntSchema());
  Table delivered("delivered", output.schema());
  std::vector<size_t> positions(kRows);

  auto round = [&](int64_t r) {
    batch.Clear();
    for (size_t i = 0; i < kRows; ++i) {
      batch.column(0).AppendInt64(static_cast<int64_t>(i));
      batch.column(1).AppendInt64(r);
    }
    ASSERT_TRUE(ingest.AppendColumns(std::move(batch), r).ok());
    scratch.Clear();
    ingest.DrainAllInto(&scratch);
    const Bat& x = *scratch.column(0);
    size_t cnt = kernel::SelectRangeInt64(x.int64_data().data(), 100, 899, 0,
                                          x.size(), positions.data());
    positions.resize(cnt);
    result.Clear();
    result.column(0)->AppendPositions(*scratch.column(0), positions);
    result.column(1)->AppendPositions(*scratch.column(1), positions);
    ASSERT_TRUE(output.AppendTableMove(std::move(result), r).ok());
    delivered.Clear();
    output.DrainAllInto(&delivered);
    ASSERT_EQ(delivered.num_rows(), 800u);
    positions.resize(kRows);
  };

  // Warm-up: establishes vector capacities on every stage's buffers.
  for (int64_t r = 0; r < 4; ++r) round(r);

  int64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int64_t r = 4; r < 16; ++r) round(r);
  int64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "steady-state pipeline rounds performed heap allocations";

  EXPECT_EQ(ingest.total_appended(), ingest.total_consumed());
  EXPECT_EQ(output.total_appended(), output.total_consumed());
#endif
}

/// Appends one `ticks` line (sym,px,qty,seq) and its newline to `text`,
/// without touching the heap once `text` has the capacity.
void AppendTickLine(int64_t sym, int64_t px, int64_t qty, int64_t seq,
                    std::string* text) {
  char buf[96];
  char* p = buf;
  char* end = buf + sizeof(buf);
  for (int64_t v : {sym, px, qty, seq}) {
    if (p != buf) *p++ = ',';
    p = std::to_chars(p, end, v).ptr;
  }
  *p++ = '\n';
  text->append(buf, static_cast<size_t>(p - buf));
}

// The framed text path: newline-framed text goes onto a channel with
// PushBlock, the receptor takes the block, parses it in one pass into its
// recycled batch and delivers it into the basket, and the basket is
// drained. The channel recycles its block and the batch ping-pongs with the
// basket, so once warm a round allocates nothing.
TEST(DatapathAllocTest, FramedTextRoundIsAllocationFree) {
#if !DATACELL_COUNT_ALLOCS
  GTEST_SKIP() << "allocation counting disabled under sanitizers or "
                  "debug-check builds";
#else
  constexpr size_t kRows = 1024;
  Engine engine;
  ASSERT_TRUE(engine
                  .ExecuteSql("create basket ticks (sym int, px double, "
                              "qty int, seq int)")
                  .ok());
  Channel wire;
  auto receptor = engine.AttachReceptor("ticks", &wire);
  ASSERT_TRUE(receptor.ok());
  auto ticks = engine.GetBasket("ticks");
  ASSERT_TRUE(ticks.ok());
  Table drained("drained", (*ticks)->schema());
  std::string text;

  auto round = [&](int64_t r) {
    text.clear();
    for (size_t i = 0; i < kRows; ++i) {
      AppendTickLine(static_cast<int64_t>(i % 64), static_cast<int64_t>(i),
                     r % 10, static_cast<int64_t>(i), &text);
    }
    wire.PushBlock(text);
    auto fired = (*receptor)->Fire();
    ASSERT_TRUE(fired.ok());
    ASSERT_EQ(*fired, static_cast<int64_t>(kRows));
    drained.Clear();
    (*ticks)->DrainAllInto(&drained);
    ASSERT_EQ(drained.num_rows(), kRows);
  };

  for (int64_t r = 0; r < 4; ++r) round(r);

  int64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int64_t r = 4; r < 16; ++r) round(r);
  int64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "steady-state framed text rounds performed heap allocations";
  EXPECT_EQ((*receptor)->malformed_lines(), 0);
  EXPECT_EQ(wire.total_pushed(), static_cast<int64_t>(16 * kRows));
#endif
}

// Buffers a drain or a delivery lets go of return to the allocator; nothing
// between rounds keeps them. Four queries share one basket on the Engine
// facade (filter, keyed group-by, sliding window, stream-table join), so
// every drain, result and emitted batch shape takes part. Once warm, the
// live heap of the idle engine must not depend on how many rounds it has
// run.
TEST(DatapathAllocTest, IdleEngineRetainedHeapDoesNotGrowWithRounds) {
#if !DATACELL_COUNT_ALLOCS
  GTEST_SKIP() << "allocation counting disabled under sanitizers or "
                  "debug-check builds";
#else
  constexpr size_t kRows = 4096;
  constexpr int64_t kSyms = 64;
  Engine engine;
  ASSERT_TRUE(engine
                  .ExecuteSql("create basket ticks (sym int, px double, "
                              "qty int, seq int)")
                  .ok());
  ASSERT_TRUE(engine.ExecuteSql("create table ref (sym int, sector int)").ok());
  std::string ref = "insert into ref values ";
  for (int64_t s = 0; s < kSyms; ++s) {
    if (s > 0) ref += ", ";
    ref += "(" + std::to_string(s) + ", " + std::to_string(s % 8) + ")";
  }
  ASSERT_TRUE(engine.ExecuteSql(ref).ok());
  const std::vector<std::string> queries = {
      "select t.sym, t.px, t.qty, t.seq from [select * from ticks] as t "
      "where t.px > 150.0",
      "select t.sym, sum(t.qty) as q, max(t.seq) as s from "
      "[select * from ticks] as t group by t.sym",
      "select avg(t.px) as a, max(t.seq) as s from [select * from ticks] "
      "as t window size 8192 slide 1024",
      "select t.sym, t.qty, t.seq, r.sector from [select * from ticks] as t "
      "join ref as r on t.sym = r.sym"};
  std::vector<std::shared_ptr<CountingSink>> sinks;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto id = engine.SubmitContinuousQuery("q" + std::to_string(i),
                                           queries[i]);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    sinks.push_back(std::make_shared<CountingSink>());
    ASSERT_TRUE(engine.Subscribe(*id, sinks.back()).ok());
  }

  auto ticks = engine.GetBasket("ticks");
  ASSERT_TRUE(ticks.ok());
  // Every other round arrives as text on a channel, so the receptor's batch
  // and the channel's recycled blocks are part of what must stay bounded.
  Channel wire;
  ASSERT_TRUE(engine.AttachReceptor("ticks", &wire).ok());
  ColumnBatch batch((*ticks)->user_schema());
  std::string text;
  int64_t seq = 0;
  int64_t rounds = 0;
  auto round = [&] {
    if (rounds++ % 2 == 1) {
      text.clear();
      for (size_t i = 0; i < kRows; ++i, ++seq) {
        AppendTickLine(seq % kSyms, seq % 200, seq % 10, seq, &text);
      }
      wire.PushBlock(text);
      engine.Drain();
      ASSERT_TRUE(wire.empty());
      return;
    }
    batch.Clear();
    for (size_t i = 0; i < kRows; ++i, ++seq) {
      batch.column(0).AppendInt64(seq % kSyms);
      batch.column(1).AppendDouble(static_cast<double>(seq % 200));
      batch.column(2).AppendInt64(seq % 10);
      batch.column(3).AppendInt64(seq);
    }
    ASSERT_TRUE(engine.IngestColumns("ticks", std::move(batch)).ok());
    engine.Drain();
  };
  auto live = [] { return g_live_bytes.load(std::memory_order_relaxed); };

  // Rounds 1-16 warm every buffer and the window state up; the next 240
  // rounds repeat the same work.
  for (int r = 0; r < 16; ++r) round();
  int64_t after_16 = live();
  for (int r = 16; r < 256; ++r) round();
  int64_t after_256 = live();
  // One batch: the basket's five 8-byte columns (four user columns + ts).
  constexpr int64_t kBatchBytes = kRows * 5 * sizeof(int64_t);
  EXPECT_LE(std::llabs(after_256 - after_16), kBatchBytes)
      << "idle live heap after 16 rounds: " << after_16
      << " B, after 256 rounds: " << after_256 << " B";

  EXPECT_EQ((*ticks)->size(), 0u);
  for (const auto& sink : sinks) EXPECT_GT(sink->rows(), 0);
#endif
}

// The sharded router's claim: hash-split batches gather into per-shard
// scratch batches whose buffers recycle through the shard baskets' swap, so
// once warm a round through ShardedEngine::IngestColumns allocates nothing.
// Each shard basket is drained into caller-owned scratch, closing the cycle
// router scratch -> basket -> drain scratch -> basket.
TEST(DatapathAllocTest, ShardedHashIngestRoundIsAllocationFree) {
#if !DATACELL_COUNT_ALLOCS
  GTEST_SKIP() << "allocation counting disabled under sanitizers or "
                  "debug-check builds";
#else
  constexpr size_t kRows = 1024;
  ShardedEngineOptions so;
  so.num_shards = 4;
  ShardedEngine se(so);
  ASSERT_TRUE(se.CreateStream("ticks", TwoIntSchema(), "x").ok());
  auto route = se.GetRoute("ticks");
  ASSERT_TRUE(route.ok());
  ASSERT_EQ(route->kind, RouteKind::kHash);
  std::vector<BasketPtr> baskets;
  std::vector<std::unique_ptr<Table>> drained;
  for (size_t s = 0; s < se.num_shards(); ++s) {
    auto basket = se.shard(s).GetBasket("ticks");
    ASSERT_TRUE(basket.ok());
    baskets.push_back(*basket);
    drained.push_back(std::make_unique<Table>("drained", (*basket)->schema()));
  }
  ColumnBatch batch(TwoIntSchema());

  auto round = [&](int64_t r) {
    batch.Clear();
    for (size_t i = 0; i < kRows; ++i) {
      batch.column(0).AppendInt64(static_cast<int64_t>(i));
      batch.column(1).AppendInt64(r);
    }
    ASSERT_TRUE(se.IngestColumns("ticks", std::move(batch)).ok());
    size_t total = 0;
    for (size_t s = 0; s < baskets.size(); ++s) {
      drained[s]->Clear();
      baskets[s]->DrainAllInto(drained[s].get());
      total += drained[s]->num_rows();
    }
    ASSERT_EQ(total, kRows);
  };

  for (int64_t r = 0; r < 4; ++r) round(r);

  int64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int64_t r = 4; r < 16; ++r) round(r);
  int64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "steady-state sharded ingest rounds performed heap allocations";
  EXPECT_EQ(se.routed_tuples(), static_cast<int64_t>(16 * kRows));
#endif
}

// --- equivalence: columnar vs row paths ------------------------------------

TEST(DatapathEquivalenceTest, ColumnarCsvIngestMatchesRowIngest) {
  Schema schema({{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"s", DataType::kString},
                 {"b", DataType::kBool}});
  std::vector<std::string> lines = {
      "1,1.5,hello,true",
      "-7,2.25e3,world,false",
      ",,,",                       // all nulls
      "42,  ,  spaced  ,1",        // null double, string keeps spaces
      "9,0.125,\"quoted,comma\",f",
      "10,3.5,\"\",t",             // quoted empty = real empty string
  };

  Basket row_basket(Basket::MakeBasketTable("rows", schema));
  std::vector<Row> rows;
  for (const std::string& line : lines) {
    auto parsed = ParseCsvRow(line, schema);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    rows.push_back(std::move(*parsed));
  }
  ASSERT_TRUE(row_basket.AppendBatch(rows, 77).ok());

  Basket col_basket(Basket::MakeBasketTable("cols", schema));
  ColumnBatch batch(schema);
  for (const std::string& line : lines) {
    ASSERT_TRUE(AppendCsvToColumns(line, &batch).ok()) << line;
  }
  ASSERT_TRUE(col_basket.AppendColumns(std::move(batch), 77).ok());

  EXPECT_EQ(RowStrings(*row_basket.PeekSnapshot()),
            RowStrings(*col_basket.PeekSnapshot()));
}

TEST(DatapathEquivalenceTest, MalformedLineLeavesBatchUnchanged) {
  Schema schema({{"i", DataType::kInt64}, {"s", DataType::kString}});
  ColumnBatch batch(schema);
  ASSERT_TRUE(AppendCsvToColumns("1,ok", &batch).ok());
  EXPECT_FALSE(AppendCsvToColumns("notanint,bad", &batch).ok());
  EXPECT_FALSE(AppendCsvToColumns("1,two,three", &batch).ok());
  EXPECT_EQ(batch.num_rows(), 1u);
  EXPECT_EQ(batch.column(0).size(), batch.column(1).size());
  EXPECT_EQ(batch.column(1).StringAt(0), "ok");
}

TEST(DatapathEquivalenceTest, StealingDrainMatchesSnapshot) {
  Basket b(Basket::MakeBasketTable("r", TwoIntSchema()));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(b.Append({Value::Int64(i), Value::Int64(i * 2)}, i).ok());
  }
  TablePtr snapshot = b.PeekSnapshot();
  TablePtr drained = b.DrainAll();
  EXPECT_EQ(RowStrings(*snapshot), RowStrings(*drained));
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.total_appended(), b.total_consumed());
}

TEST(DatapathEquivalenceTest, SingleReaderDrainNewForMatchesReadNewFor) {
  // Two baskets with identical traffic: one drained via the read+trim pair,
  // one via the stealing DrainNewFor. The delivered tuples must match.
  Basket legacy(Basket::MakeBasketTable("a", TwoIntSchema()));
  Basket stealing(Basket::MakeBasketTable("b", TwoIntSchema()));
  size_t lr = legacy.RegisterReader();
  size_t sr = stealing.RegisterReader();
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 5; ++i) {
      Row row{Value::Int64(round * 5 + i), Value::Int64(i)};
      ASSERT_TRUE(legacy.Append(row, round).ok());
      ASSERT_TRUE(stealing.Append(row, round).ok());
    }
    TablePtr want = legacy.ReadNewFor(lr);
    legacy.TrimConsumed();
    TablePtr got = stealing.DrainNewFor(sr);
    EXPECT_EQ(RowStrings(*want), RowStrings(*got));
  }
  EXPECT_EQ(stealing.total_consumed(), legacy.total_consumed());
}

TEST(DatapathEquivalenceTest, MultiReaderDrainNewForKeepsUnseenTuples) {
  // With a second, slower reader the stealing fast path must not engage:
  // tuples stay until everyone has seen them.
  Basket b(Basket::MakeBasketTable("r", TwoIntSchema()));
  size_t fast = b.RegisterReader();
  size_t slow = b.RegisterReader();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(b.Append({Value::Int64(i), Value::Int64(i)}, i).ok());
  }
  TablePtr fast_batch = b.DrainNewFor(fast);
  EXPECT_EQ(fast_batch->num_rows(), 6u);
  EXPECT_EQ(b.size(), 6u);  // slow reader hasn't seen them
  TablePtr slow_batch = b.DrainNewFor(slow);
  EXPECT_EQ(RowStrings(*fast_batch), RowStrings(*slow_batch));
  EXPECT_EQ(b.size(), 0u);  // everyone has; trimmed
}

TEST(DatapathEquivalenceTest, MoveAppendsMatchCopyAppends) {
  Schema user = TwoIntSchema();
  Basket copy_b(Basket::MakeBasketTable("c", user));
  Basket move_b(Basket::MakeBasketTable("m", user));

  Table result("res", user);
  for (int i = 0; i < 10; ++i) {
    result.column(0)->AppendInt64(i);
    result.column(1)->AppendInt64(100 - i);
  }
  ASSERT_TRUE(copy_b.AppendTable(result, 5).ok());
  ASSERT_TRUE(move_b.AppendTableMove(std::move(result), 5).ok());
  EXPECT_EQ(result.num_rows(), 0u);  // buffers moved out
  EXPECT_EQ(RowStrings(*copy_b.PeekSnapshot()),
            RowStrings(*move_b.PeekSnapshot()));

  // Same for the carries-ts flavour.
  Basket copy_ts(Basket::MakeBasketTable("ct", user));
  Basket move_ts(Basket::MakeBasketTable("mt", user));
  Table with_ts("res_ts", copy_ts.schema());
  for (int i = 0; i < 10; ++i) {
    with_ts.column(0)->AppendInt64(i);
    with_ts.column(1)->AppendInt64(i * 3);
    with_ts.column(2)->AppendInt64(1000 + i);  // ts column
  }
  ASSERT_TRUE(copy_ts.AppendTable(with_ts, std::nullopt).ok());
  ASSERT_TRUE(move_ts.AppendTableMove(std::move(with_ts), std::nullopt).ok());
  EXPECT_EQ(RowStrings(*copy_ts.PeekSnapshot()),
            RowStrings(*move_ts.PeekSnapshot()));
}

TEST(DatapathEquivalenceTest, GeneratorColumnarFillMatchesRowFill) {
  std::vector<ColumnSpec> specs(3);
  specs[0].type = DataType::kInt64;
  specs[1].type = DataType::kDouble;
  specs[2].type = DataType::kString;
  UniformRowGenerator row_gen(specs, /*seed=*/42);
  UniformRowGenerator col_gen(specs, /*seed=*/42);

  std::vector<Row> rows = row_gen.NextBatch(64);
  ColumnBatch batch(*col_gen.schema());
  col_gen.NextBatchColumns(64, &batch);

  ASSERT_EQ(batch.num_rows(), rows.size());
  std::string line;
  for (size_t r = 0; r < rows.size(); ++r) {
    FormatCsvLine(batch, r, &line);
    EXPECT_EQ(line, FormatCsvRow(rows[r])) << "row " << r;
  }
}

// --- equivalence: SIMD kernels and interpreted plans ------------------------

TEST(DatapathKernelTest, Avx2SelectMatchesScalar) {
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 1000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    ints.push_back(static_cast<int64_t>(state >> 16) % 1000 - 500);
    doubles.push_back(static_cast<double>(static_cast<int64_t>(state % 2001) -
                                          1000) /
                      8.0);
  }
  doubles[17] = std::numeric_limits<double>::quiet_NaN();  // never qualifies

  std::vector<size_t> scalar_out(ints.size());
  std::vector<size_t> simd_out(ints.size());
  size_t ns = kernel::SelectRangeInt64Scalar(ints.data(), -250, 250, 0,
                                             ints.size(), scalar_out.data());
  size_t nv = kernel::SelectRangeInt64(ints.data(), -250, 250, 0, ints.size(),
                                       simd_out.data());
  ASSERT_EQ(ns, nv);
  scalar_out.resize(ns);
  simd_out.resize(nv);
  EXPECT_EQ(scalar_out, simd_out);

  scalar_out.assign(doubles.size(), 0);
  simd_out.assign(doubles.size(), 0);
  ns = kernel::SelectRangeDoubleScalar(doubles.data(), -50.0, 50.0, 0,
                                       doubles.size(), scalar_out.data());
  nv = kernel::SelectRangeDouble(doubles.data(), -50.0, 50.0, 0,
                                 doubles.size(), simd_out.data());
  ASSERT_EQ(ns, nv);
  scalar_out.resize(ns);
  simd_out.resize(nv);
  EXPECT_EQ(scalar_out, simd_out);
}

// The interpreter runs Project(Filter(Scan)) and Aggregate over a filter node
// by node: the filter takes the selected rows, and the next node runs over
// them.
class InterpretedPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_
                    .CreateRelation("t",
                                    Schema({{"a", DataType::kInt64},
                                            {"b", DataType::kInt64}}),
                                    RelationKind::kTable)
                    .ok());
    input_ = std::make_shared<Table>(
        "t", Schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}}));
    for (int i = 0; i < 100; ++i) {
      input_->column(0)->AppendInt64(i);
      input_->column(1)->AppendInt64(i * 7 % 13);
    }
    input_->column(1)->AppendNull();
    input_->column(0)->AppendInt64(50);  // in range, null b
  }

  Result<TablePtr> Run(const std::string& sql) {
    auto stmt = sql::ParseStatement(sql);
    if (!stmt.ok()) return stmt.status();
    sql::Planner planner(&catalog_);
    DC_ASSIGN_OR_RETURN(sql::CompiledQuery q,
                        planner.CompileSelect(*stmt->select));
    PlanBindings bindings{{"t", input_}};
    return ExecutePlan(*q.plan, bindings);
  }

  Catalog catalog_;
  TablePtr input_;
};

TEST_F(InterpretedPlanTest, ProjectOverFilterMatchesReference) {
  // Project(Filter(Scan)) with plain column refs: the projection gathers
  // from the filter node's output.
  auto got = Run("select b, a from t where a >= 10 and a <= 20");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ((*got)->num_rows(), 11u);
  for (size_t i = 0; i < 11; ++i) {
    int64_t a = static_cast<int64_t>(i) + 10;
    EXPECT_EQ((*got)->column(1)->Int64At(i), a);
    EXPECT_EQ((*got)->column(0)->Int64At(i), a * 7 % 13);
  }
}

TEST_F(InterpretedPlanTest, ProjectOverFilterCarriesNulls) {
  auto got = Run("select b from t where a = 50");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  // Two rows with a == 50: the original (b = 350 % 13) and the null-b row.
  ASSERT_EQ((*got)->num_rows(), 2u);
  EXPECT_EQ((*got)->column(0)->Int64At(0), 50 * 7 % 13);
  EXPECT_TRUE((*got)->column(0)->IsNull(1));
}

TEST_F(InterpretedPlanTest, AggregateOverFilterMatchesReference) {
  auto got = Run(
      "select count(*), sum(b), min(a), max(a) from t "
      "where a >= 10 and a <= 20");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  int64_t want_sum = 0;
  for (int64_t a = 10; a <= 20; ++a) want_sum += a * 7 % 13;
  ASSERT_EQ((*got)->num_rows(), 1u);
  // count is int64; sum/min/max finalize to double (AggPartial::Finalize).
  EXPECT_EQ((*got)->column(0)->Int64At(0), 11);
  EXPECT_DOUBLE_EQ((*got)->column(1)->DoubleAt(0),
                   static_cast<double>(want_sum));
  EXPECT_DOUBLE_EQ((*got)->column(2)->DoubleAt(0), 10.0);
  EXPECT_DOUBLE_EQ((*got)->column(3)->DoubleAt(0), 20.0);
}

TEST_F(InterpretedPlanTest, CountStarOverFilterSkipsNothing) {
  // count(*) over a filter counts the rows it passes, nulls included.
  auto got = Run("select count(*), count(b) from t where a = 50");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ((*got)->column(0)->Int64At(0), 2);  // both rows
  EXPECT_EQ((*got)->column(1)->Int64At(0), 1);  // null b not counted
}

}  // namespace
}  // namespace datacell
