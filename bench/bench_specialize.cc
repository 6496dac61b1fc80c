// Experiment E15: plan state kept across firings vs a fresh PlanState per
// firing, same query and data, second argument selects the mode (1 = kept
// state, 0 = fresh state; EngineOptions::fresh_plan_state). Both run the
// same interpreter and kernels: a filter hands its parent a candidate list,
// a join over a static table probes an int64 hash index, and a single
// integer GROUP BY runs on an int64 group table. Kept state builds the
// index once and reuses the group table and the node tree; fresh state
// rebuilds all three per firing. The gap between the /1 and /0 rows is what
// keeping state buys at each batch size.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "common/random.h"

namespace datacell {
namespace {

EngineOptions StateOptions(bool kept) {
  EngineOptions opts = bench::BenchEngineOptions();
  opts.fresh_plan_state = !kept;
  return opts;
}

/// Filter + project: a range select into a candidate list, then a gather
/// of the projected column.
void BM_SpecializeSelection(benchmark::State& state) {
  size_t batch = static_cast<size_t>(state.range(0));
  Engine engine(StateOptions(state.range(1) != 0));
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

/// Filter + scalar aggregate: a range select into a candidate list, then
/// one aggregate pass per spec over those positions.
void BM_SpecializeFilterAggregate(benchmark::State& state) {
  size_t batch = static_cast<size_t>(state.range(0));
  Engine engine(StateOptions(state.range(1) != 0));
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

/// Stream ⋈ static table: the kept hash index vs one built per firing.
void BM_SpecializeJoin(benchmark::State& state) {
  size_t batch = static_cast<size_t>(state.range(0));
  Engine engine(StateOptions(state.range(1) != 0));
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

/// Conjunctive filter: both comparisons lower into one kernel range, once
/// per plan state.
void BM_SpecializeConjunction(benchmark::State& state) {
  size_t batch = static_cast<size_t>(state.range(0));
  Engine engine(StateOptions(state.range(1) != 0));
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

/// Keyed aggregation (the end-to-end benchmark's `vol` shape): the kept
/// int64 group table vs one allocated per firing, both with typed
/// per-group accumulators. Keys are Zipf(0.8) over 1,000 values, so a batch
/// holds a few hundred groups.
void BM_SpecializeGroupBy(benchmark::State& state) {
  size_t batch = static_cast<size_t>(state.range(0));
  Engine engine(StateOptions(state.range(1) != 0));
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
