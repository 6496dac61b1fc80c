// Experiment E13: the zero-copy columnar data path. Four measurements, each
// isolating one mechanism of the batch-ingest redesign:
//
//   1. pipeline ingest:  Value-boxed row batches (IngestBatch) vs typed
//      ColumnBatch moves (IngestColumns) through the full
//      receptor->basket->factory->basket->emitter round.
//   2. basket drain:     copying reads (ReadNewFor + TrimConsumed) vs
//      buffer-stealing drains (DrainNewFor) on a single-reader basket.
//   3. result buffers:   the allocator's cost for a fresh result table.
//   4. selection kernel: scalar compress-store loop vs the AVX2 variant
//      behind the runtime dispatch.
//
// All benches are single-threaded steady-state: buffers ping-pong between
// producer and consumer, so after warmup the hot loop should not allocate.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "algebra/kernels.h"
#include "bench/bench_util.h"
#include "storage/column_batch.h"

namespace datacell {
namespace {

// --- 1. pipeline ingest: row copy vs columnar move -----------------------

void BM_PipelineRowIngest(benchmark::State& state) {
  size_t batch = static_cast<size_t>(state.range(0));
  Engine engine(bench::BenchEngineOptions());
  if (!engine.ExecuteSql("create basket r (x int)").ok()) return;
  auto q = engine.SubmitContinuousQuery(
      "sel", "select x from [select * from r] as s where s.x < 500000");
  if (!q.ok()) return;
  auto sink = std::make_shared<CountingSink>();
  if (!engine.Subscribe(*q, sink).ok()) return;
  auto rows = bench::IntRows(batch);
  int64_t tuples = 0;
  for (auto _ : state) {
    if (!engine.IngestBatch("r", rows).ok()) return;
    engine.Drain();
    tuples += static_cast<int64_t>(batch);
  }
  bench::ReportTuplesPerSecond(state, tuples);
  state.counters["results"] = static_cast<double>(sink->rows());
}
BENCHMARK(BM_PipelineRowIngest)
    ->RangeMultiplier(4)
    ->Range(1 << 8, 1 << 14)
    ->Unit(benchmark::kMicrosecond);

void BM_PipelineZeroCopyIngest(benchmark::State& state) {
  size_t batch = static_cast<size_t>(state.range(0));
  Engine engine(bench::BenchEngineOptions());
  if (!engine.ExecuteSql("create basket r (x int)").ok()) return;
  auto q = engine.SubmitContinuousQuery(
      "sel", "select x from [select * from r] as s where s.x < 500000");
  if (!q.ok()) return;
  auto sink = std::make_shared<CountingSink>();
  if (!engine.Subscribe(*q, sink).ok()) return;
  // Pre-generated raw values; the hot loop pays the adapter's refill cost
  // (typed appends into the persistent batch) but no Value boxing and no
  // per-batch allocation: AppendColumns swaps the basket's drained buffers
  // back into `cb`.
  std::vector<int64_t> values;
  values.reserve(batch);
  for (const Row& r : bench::IntRows(batch)) {
    values.push_back(r[0].int64_value());
  }
  ColumnBatch cb(Schema({{"x", DataType::kInt64}}));
  int64_t tuples = 0;
  for (auto _ : state) {
    cb.Clear();
    Bat& col = cb.column(0);
    for (int64_t v : values) col.AppendInt64(v);
    if (!engine.IngestColumns("r", std::move(cb)).ok()) return;
    engine.Drain();
    tuples += static_cast<int64_t>(batch);
  }
  bench::ReportTuplesPerSecond(state, tuples);
  state.counters["results"] = static_cast<double>(sink->rows());
}
BENCHMARK(BM_PipelineZeroCopyIngest)
    ->RangeMultiplier(4)
    ->Range(1 << 8, 1 << 14)
    ->Unit(benchmark::kMicrosecond);

// --- 2. basket drain: copy vs steal --------------------------------------

void BM_DrainCopying(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Basket basket(Basket::MakeBasketTable("r", Schema({{"x", DataType::kInt64}})));
  size_t reader = basket.RegisterReader();
  auto src = bench::IntBatchTable(n);
  int64_t tuples = 0;
  Timestamp ts = 0;
  for (auto _ : state) {
    if (!basket.AppendTable(*src, ++ts).ok()) return;
    TablePtr got = basket.ReadNewFor(reader);  // copies every column
    basket.TrimConsumed();
    benchmark::DoNotOptimize(got->num_rows());
    tuples += static_cast<int64_t>(n);
  }
  bench::ReportTuplesPerSecond(state, tuples);
}
BENCHMARK(BM_DrainCopying)->Arg(1 << 12)->Unit(benchmark::kMicrosecond);

void BM_DrainStealing(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Basket basket(Basket::MakeBasketTable("r", Schema({{"x", DataType::kInt64}})));
  size_t reader = basket.RegisterReader();
  auto src = bench::IntBatchTable(n);
  int64_t tuples = 0;
  Timestamp ts = 0;
  for (auto _ : state) {
    if (!basket.AppendTable(*src, ++ts).ok()) return;
    TablePtr got = basket.DrainNewFor(reader);  // single reader: steals
    benchmark::DoNotOptimize(got->num_rows());
    tuples += static_cast<int64_t>(n);
  }
  bench::ReportTuplesPerSecond(state, tuples);
}
BENCHMARK(BM_DrainStealing)->Arg(1 << 12)->Unit(benchmark::kMicrosecond);

// --- 3. result buffers: malloc per result ---------------------------------

void BM_ResultBufferMalloc(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Schema schema({{"x", DataType::kInt64}});
  int64_t tuples = 0;
  for (auto _ : state) {
    auto t = std::make_shared<Table>("res", schema);
    const BatPtr& col = t->column(0);
    for (size_t i = 0; i < n; ++i) col->AppendInt64(static_cast<int64_t>(i));
    benchmark::DoNotOptimize(t->num_rows());
    tuples += static_cast<int64_t>(n);
  }
  bench::ReportTuplesPerSecond(state, tuples);
}
BENCHMARK(BM_ResultBufferMalloc)->Arg(1 << 12)->Unit(benchmark::kMicrosecond);

// --- 4. selection kernel: scalar vs AVX2 ----------------------------------

std::vector<int64_t> KernelInts(size_t n) {
  std::vector<int64_t> v(n);
  uint64_t s = 0x9e3779b97f4a7c15ULL;
  for (size_t i = 0; i < n; ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    v[i] = static_cast<int64_t>(s >> 40);  // [0, 2^24)
  }
  return v;
}

void BM_SelectKernelScalarInt64(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<int64_t> data = KernelInts(n);
  std::vector<size_t> out(n);
  // ~50% selectivity over the [0, 2^24) value range.
  int64_t lo = 1 << 22, hi = 3 << 22;
  int64_t tuples = 0;
  for (auto _ : state) {
    size_t k = kernel::SelectRangeInt64Scalar(data.data(), lo, hi, 0, n,
                                              out.data());
    benchmark::DoNotOptimize(k);
    tuples += static_cast<int64_t>(n);
  }
  bench::ReportTuplesPerSecond(state, tuples);
}
BENCHMARK(BM_SelectKernelScalarInt64)->Arg(1 << 16)->Unit(benchmark::kMicrosecond);

void BM_SelectKernelSimdInt64(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<int64_t> data = KernelInts(n);
  std::vector<size_t> out(n);
  int64_t lo = 1 << 22, hi = 3 << 22;
  int64_t tuples = 0;
  for (auto _ : state) {
    size_t k = kernel::SelectRangeInt64(data.data(), lo, hi, 0, n, out.data());
    benchmark::DoNotOptimize(k);
    tuples += static_cast<int64_t>(n);
  }
  bench::ReportTuplesPerSecond(state, tuples);
  state.counters["avx2"] = kernel::HasAvx2() ? 1.0 : 0.0;
}
BENCHMARK(BM_SelectKernelSimdInt64)->Arg(1 << 16)->Unit(benchmark::kMicrosecond);

void BM_SelectKernelScalarDouble(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<int64_t> ints = KernelInts(n);
  std::vector<double> data(n);
  for (size_t i = 0; i < n; ++i) data[i] = static_cast<double>(ints[i]);
  std::vector<size_t> out(n);
  double lo = 1 << 22, hi = 3 << 22;
  int64_t tuples = 0;
  for (auto _ : state) {
    size_t k = kernel::SelectRangeDoubleScalar(data.data(), lo, hi, 0, n,
                                               out.data());
    benchmark::DoNotOptimize(k);
    tuples += static_cast<int64_t>(n);
  }
  bench::ReportTuplesPerSecond(state, tuples);
}
BENCHMARK(BM_SelectKernelScalarDouble)->Arg(1 << 16)->Unit(benchmark::kMicrosecond);

void BM_SelectKernelSimdDouble(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<int64_t> ints = KernelInts(n);
  std::vector<double> data(n);
  for (size_t i = 0; i < n; ++i) data[i] = static_cast<double>(ints[i]);
  std::vector<size_t> out(n);
  double lo = 1 << 22, hi = 3 << 22;
  int64_t tuples = 0;
  for (auto _ : state) {
    size_t k = kernel::SelectRangeDouble(data.data(), lo, hi, 0, n, out.data());
    benchmark::DoNotOptimize(k);
    tuples += static_cast<int64_t>(n);
  }
  bench::ReportTuplesPerSecond(state, tuples);
  state.counters["avx2"] = kernel::HasAvx2() ? 1.0 : 0.0;
}
BENCHMARK(BM_SelectKernelSimdDouble)->Arg(1 << 16)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace datacell

DATACELL_BENCH_MAIN();
