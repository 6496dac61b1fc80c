// Experiment E15: registration-time plan specialization vs the tuple
// interpreter, same query and data, second argument selects the backend
// (1 = specialized pipeline, 0 = interpreter). Both run the same bulk
// kernels per step (a select yields positions, the next step reads them);
// the specialized pipeline binds and type-resolves those steps once at
// registration instead of walking the plan tree per firing. The gap between
// the /1 and /0 rows is what specialization buys at each batch size.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "common/random.h"

namespace datacell {
namespace {

EngineOptions BackendOptions(bool specialize) {
  EngineOptions opts = bench::BenchEngineOptions();
  opts.specialize_plans = specialize;
  return opts;
}

/// Filter + project: a range select into a position list, then a gather
/// of the projected column, on both backends.
void BM_SpecializeSelection(benchmark::State& state) {
  size_t batch = static_cast<size_t>(state.range(0));
  Engine engine(BackendOptions(state.range(1) != 0));
  if (!engine.ExecuteSql("create basket r (x int)").ok()) return;
  auto q = engine.SubmitContinuousQuery(
      "sel", "select x from [select * from r] as s where s.x < 500000");
  if (!q.ok()) return;
  auto sink = std::make_shared<CountingSink>();
  if (!engine.Subscribe(*q, sink).ok()) return;
  auto batch_table = bench::IntBatchTable(batch);
  int64_t tuples = 0;
  for (auto _ : state) {
    if (!engine.IngestTable("r", *batch_table).ok()) return;
    engine.Drain();
    tuples += static_cast<int64_t>(batch);
  }
  bench::ReportTuplesPerSecond(state, tuples);
  state.counters["results"] = static_cast<double>(sink->rows());
}
BENCHMARK(BM_SpecializeSelection)
    ->ArgsProduct({{1 << 10, 1 << 14}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

/// Filter + scalar aggregate: a range select into a position list, then
/// one aggregate pass per spec over those positions, on both backends.
void BM_SpecializeFilterAggregate(benchmark::State& state) {
  size_t batch = static_cast<size_t>(state.range(0));
  Engine engine(BackendOptions(state.range(1) != 0));
  if (!engine.ExecuteSql("create basket r (k int, v int)").ok()) return;
  auto q = engine.SubmitContinuousQuery(
      "agg",
      "select count(*), sum(v), min(v), max(v) "
      "from [select * from r] as s where s.k < 500000");
  if (!q.ok()) return;
  auto sink = std::make_shared<CountingSink>();
  if (!engine.Subscribe(*q, sink).ok()) return;
  auto batch_table = bench::GroupedBatchTable(batch, 1000000);
  int64_t tuples = 0;
  for (auto _ : state) {
    if (!engine.IngestTable("r", *batch_table).ok()) return;
    engine.Drain();
    tuples += static_cast<int64_t>(batch);
  }
  bench::ReportTuplesPerSecond(state, tuples);
}
BENCHMARK(BM_SpecializeFilterAggregate)
    ->ArgsProduct({{1 << 10, 1 << 14}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

/// Stream ⋈ static table: the registration-built hash index vs the
/// interpreter's per-firing hash join build.
void BM_SpecializeJoin(benchmark::State& state) {
  size_t batch = static_cast<size_t>(state.range(0));
  Engine engine(BackendOptions(state.range(1) != 0));
  if (!engine.ExecuteSql("create basket r (x int)").ok()) return;
  if (!engine.ExecuteSql("create table dim (k int, w int)").ok()) return;
  // 4096 dimension rows covering the low key range: ~matching half the
  // stream values generated in [0, 1e6).
  std::string insert = "insert into dim values ";
  for (int i = 0; i < 4096; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i * 244) + ", " + std::to_string(i) + ")";
  }
  if (!engine.ExecuteSql(insert).ok()) return;
  auto q = engine.SubmitContinuousQuery(
      "join",
      "select s.x, dim.w from [select * from r] as s join dim "
      "on s.x = dim.k");
  if (!q.ok()) return;
  auto sink = std::make_shared<CountingSink>();
  if (!engine.Subscribe(*q, sink).ok()) return;
  auto batch_table = bench::IntBatchTable(batch);
  int64_t tuples = 0;
  for (auto _ : state) {
    if (!engine.IngestTable("r", *batch_table).ok()) return;
    engine.Drain();
    tuples += static_cast<int64_t>(batch);
  }
  bench::ReportTuplesPerSecond(state, tuples);
  state.counters["results"] = static_cast<double>(sink->rows());
}
BENCHMARK(BM_SpecializeJoin)
    ->ArgsProduct({{1 << 10, 1 << 14}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

/// Conjunctive filter stack: both predicates merge into one kernel range at
/// registration vs two interpreted filter passes.
void BM_SpecializeConjunction(benchmark::State& state) {
  size_t batch = static_cast<size_t>(state.range(0));
  Engine engine(BackendOptions(state.range(1) != 0));
  if (!engine.ExecuteSql("create basket r (x int)").ok()) return;
  auto q = engine.SubmitContinuousQuery(
      "band",
      "select x from [select * from r] as s "
      "where s.x >= 250000 and s.x < 750000");
  if (!q.ok()) return;
  auto sink = std::make_shared<CountingSink>();
  if (!engine.Subscribe(*q, sink).ok()) return;
  auto batch_table = bench::IntBatchTable(batch);
  int64_t tuples = 0;
  for (auto _ : state) {
    if (!engine.IngestTable("r", *batch_table).ok()) return;
    engine.Drain();
    tuples += static_cast<int64_t>(batch);
  }
  bench::ReportTuplesPerSecond(state, tuples);
  state.counters["results"] = static_cast<double>(sink->rows());
}
BENCHMARK(BM_SpecializeConjunction)
    ->ArgsProduct({{1 << 10, 1 << 14}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

/// Keyed aggregation (the end-to-end benchmark's `vol` shape): the reused
/// int64 group table with typed per-group accumulators vs the interpreter's
/// per-firing string-keyed GroupBy and Value-boxed results. Keys are
/// Zipf(0.8) over 1,000 values, so a batch holds a few hundred groups.
void BM_SpecializeGroupBy(benchmark::State& state) {
  size_t batch = static_cast<size_t>(state.range(0));
  Engine engine(BackendOptions(state.range(1) != 0));
  if (!engine.ExecuteSql("create basket r (k int, v int, s int)").ok()) return;
  auto q = engine.SubmitContinuousQuery(
      "vol",
      "select t.k, sum(t.v) as q, max(t.s) as m "
      "from [select * from r] as t group by t.k");
  if (!q.ok()) return;
  auto sink = std::make_shared<CountingSink>();
  if (!engine.Subscribe(*q, sink).ok()) return;
  auto batch_table = std::make_shared<Table>(
      "batch", Schema({{"k", DataType::kInt64},
                       {"v", DataType::kInt64},
                       {"s", DataType::kInt64}}));
  Rng rng(42);
  for (size_t i = 0; i < batch; ++i) {
    Row row = {Value::Int64(rng.Zipf(1000, 0.8)),
               Value::Int64(rng.Uniform(1, 1000)),
               Value::Int64(static_cast<int64_t>(i / 4096))};
    if (!batch_table->AppendRow(row).ok()) return;
  }
  int64_t tuples = 0;
  for (auto _ : state) {
    if (!engine.IngestTable("r", *batch_table).ok()) return;
    engine.Drain();
    tuples += static_cast<int64_t>(batch);
  }
  bench::ReportTuplesPerSecond(state, tuples);
  state.counters["results"] = static_cast<double>(sink->rows());
}
BENCHMARK(BM_SpecializeGroupBy)
    ->ArgsProduct({{1 << 10, 1 << 14}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace datacell

DATACELL_BENCH_MAIN();
