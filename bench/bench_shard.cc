// Experiment E17: sharded multi-engine scale-out. Measures the ShardedEngine
// frontend against a plain single engine on the three placement shapes the
// partition analyzer produces:
//
//   1. partitionable filter:   hash-routed ingest, per-shard execution,
//      concatenated egress (the no-merge fast path).
//   2. partitionable group-by: group key == declared partition key, so the
//      per-shard aggregates are already the global answer.
//   3. needs-final-merge avg:  per-shard partial (sum, count) plans plus the
//      re-division, run as an ordinary query in the frontend engine.
//   4. router overhead:        hash-split columnar ingest alone (no query),
//      isolating the AppendPositions gather + scratch recycling cost.
//
// All benches are drain-driven (deterministic stepped scheduling), so what
// is measured is total work per tuple, not thread parallelism: on a 1-core
// host N shards do the same work as one engine plus routing overhead, and
// the sharded/single ratio reads as pure frontend tax. Wall-clock scale-out
// (the >= 1.8x at 2 shards / >= 3x at 4 shards acceptance) additionally
// needs Start(threads_per_shard) on a host with >= N cores — see
// EXPERIMENTS.md E17 for that protocol.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "bench/bench_util.h"
#include "core/shard.h"

namespace datacell {
namespace {

constexpr size_t kBatch = 1 << 12;

ShardedEngineOptions ShardOptions(size_t shards) {
  ShardedEngineOptions opts;
  opts.num_shards = shards;
  opts.engine = bench::BenchEngineOptions();
  return opts;
}

// --- 1. partitionable filter ----------------------------------------------

void BM_SingleEngineFilter(benchmark::State& state) {
  Engine engine(bench::BenchEngineOptions());
  if (!engine.ExecuteSql("create basket s (k int, v int)").ok()) return;
  auto q = engine.SubmitContinuousQuery(
      "hot", "select k, v from [select * from s] as t where t.v > 500000");
  if (!q.ok()) return;
  auto sink = std::make_shared<CountingSink>();
  if (!engine.Subscribe(*q, sink).ok()) return;
  auto rows = bench::GroupedRows(kBatch, /*groups=*/64);
  int64_t tuples = 0;
  for (auto _ : state) {
    if (!engine.IngestBatch("s", rows).ok()) return;
    engine.Drain();
    tuples += static_cast<int64_t>(kBatch);
  }
  bench::ReportTuplesPerSecond(state, tuples);
  state.counters["results"] = static_cast<double>(sink->rows());
}
BENCHMARK(BM_SingleEngineFilter)->Unit(benchmark::kMicrosecond);

void BM_ShardedFilter(benchmark::State& state) {
  size_t shards = static_cast<size_t>(state.range(0));
  ShardedEngine engine(ShardOptions(shards));
  Schema schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}});
  if (!engine.CreateStream("s", schema, /*partition_key=*/"k").ok()) return;
  auto q = engine.SubmitContinuousQuery(
      "hot", "select k, v from [select * from s] as t where t.v > 500000");
  if (!q.ok()) return;
  auto sink = std::make_shared<CountingSink>();
  if (!engine.Subscribe(*q, sink).ok()) return;
  auto rows = bench::GroupedRows(kBatch, /*groups=*/64);
  int64_t tuples = 0;
  for (auto _ : state) {
    if (!engine.IngestBatch("s", rows).ok()) return;
    engine.Drain();
    tuples += static_cast<int64_t>(kBatch);
  }
  bench::ReportTuplesPerSecond(state, tuples);
  state.counters["results"] = static_cast<double>(sink->rows());
  state.counters["routed"] = static_cast<double>(engine.routed_tuples());
}
BENCHMARK(BM_ShardedFilter)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMicrosecond);

// --- 2. partitionable group-by ---------------------------------------------

void BM_SingleEngineGroupBy(benchmark::State& state) {
  Engine engine(bench::BenchEngineOptions());
  if (!engine.ExecuteSql("create basket s (k int, v int)").ok()) return;
  auto q = engine.SubmitContinuousQuery(
      "agg", "select k, sum(v) as total from [select * from s] as t "
             "group by k");
  if (!q.ok()) return;
  auto sink = std::make_shared<CountingSink>();
  if (!engine.Subscribe(*q, sink).ok()) return;
  auto rows = bench::GroupedRows(kBatch, /*groups=*/64);
  int64_t tuples = 0;
  for (auto _ : state) {
    if (!engine.IngestBatch("s", rows).ok()) return;
    engine.Drain();
    tuples += static_cast<int64_t>(kBatch);
  }
  bench::ReportTuplesPerSecond(state, tuples);
  state.counters["results"] = static_cast<double>(sink->rows());
}
BENCHMARK(BM_SingleEngineGroupBy)->Unit(benchmark::kMicrosecond);

void BM_ShardedGroupBy(benchmark::State& state) {
  size_t shards = static_cast<size_t>(state.range(0));
  ShardedEngine engine(ShardOptions(shards));
  Schema schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}});
  if (!engine.CreateStream("s", schema, /*partition_key=*/"k").ok()) return;
  auto q = engine.SubmitContinuousQuery(
      "agg", "select k, sum(v) as total from [select * from s] as t "
             "group by k");
  if (!q.ok()) return;
  auto sink = std::make_shared<CountingSink>();
  if (!engine.Subscribe(*q, sink).ok()) return;
  auto rows = bench::GroupedRows(kBatch, /*groups=*/64);
  int64_t tuples = 0;
  for (auto _ : state) {
    if (!engine.IngestBatch("s", rows).ok()) return;
    engine.Drain();
    tuples += static_cast<int64_t>(kBatch);
  }
  bench::ReportTuplesPerSecond(state, tuples);
  state.counters["results"] = static_cast<double>(sink->rows());
}
BENCHMARK(BM_ShardedGroupBy)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMicrosecond);

// --- 3. needs-final-merge avg ------------------------------------------------

void BM_ShardedMergeAvg(benchmark::State& state) {
  size_t shards = static_cast<size_t>(state.range(0));
  ShardedEngine engine(ShardOptions(shards));
  Schema schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}});
  if (!engine.CreateStream("s", schema, /*partition_key=*/"k").ok()) return;
  auto q = engine.SubmitContinuousQuery(
      "mean", "select avg(v) as m from [select * from s] as t");
  if (!q.ok()) return;
  auto sink = std::make_shared<CountingSink>();
  if (!engine.Subscribe(*q, sink).ok()) return;
  auto rows = bench::GroupedRows(kBatch, /*groups=*/64);
  int64_t tuples = 0;
  for (auto _ : state) {
    if (!engine.IngestBatch("s", rows).ok()) return;
    engine.Drain();
    tuples += static_cast<int64_t>(kBatch);
  }
  bench::ReportTuplesPerSecond(state, tuples);
  state.counters["results"] = static_cast<double>(sink->rows());
}
BENCHMARK(BM_ShardedMergeAvg)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMicrosecond);

// --- 4. router overhead: hash-split columnar ingest -------------------------

void BM_ShardRouterColumnarSplit(benchmark::State& state) {
  size_t shards = static_cast<size_t>(state.range(0));
  ShardedEngine engine(ShardOptions(shards));
  Schema schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}});
  if (!engine.CreateStream("s", schema, /*partition_key=*/"k").ok()) return;
  // Pre-generate raw values; the hot loop refills one persistent batch whose
  // buffers recycle through the shard baskets' swap protocol.
  std::vector<int64_t> ks, vs;
  ks.reserve(kBatch);
  vs.reserve(kBatch);
  for (const Row& r : bench::GroupedRows(kBatch, /*groups=*/64)) {
    ks.push_back(r[0].int64_value());
    vs.push_back(r[1].int64_value());
  }
  ColumnBatch cb(schema);
  int64_t tuples = 0;
  for (auto _ : state) {
    cb.Clear();
    for (int64_t k : ks) cb.column(0).AppendInt64(k);
    for (int64_t v : vs) cb.column(1).AppendInt64(v);
    if (!engine.IngestColumns("s", std::move(cb)).ok()) return;
    tuples += static_cast<int64_t>(kBatch);
    // Keep the shard baskets bounded (and the recycling loop realistic).
    engine.Drain();
  }
  bench::ReportTuplesPerSecond(state, tuples);
  state.counters["routed"] = static_cast<double>(engine.routed_tuples());
}
BENCHMARK(BM_ShardRouterColumnarSplit)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace datacell

DATACELL_BENCH_MAIN();
