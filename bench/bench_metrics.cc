// Observability overhead (docs/ARCHITECTURE.md "Observability"): the
// instrumentation budget is < 2% on the end-to-end pipeline. This file
// measures the primitives (atomic counter increments, wait-free histogram
// observes, snapshots) and the full pipeline with event
// tracing enabled — compare BM_PipelineSelectionTraced against
// bench_pipeline's BM_PipelineSelection (identical workload, tracing off)
// to see the tracing cost in isolation.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "common/metrics_registry.h"
#include "common/trace.h"

namespace datacell {
namespace {

void BM_CounterInc(benchmark::State& state) {
  Counter c;
  for (auto _ : state) {
    c.Inc();
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterInc);

void BM_HistogramObserve(benchmark::State& state) {
  Histogram h;
  int64_t v = 1;
  for (auto _ : state) {
    h.Observe(v);
    v = (v * 7) % 1000003;  // spread across buckets
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramObserve);

void BM_TraceRecordComplete(benchmark::State& state) {
  TraceRing ring(1 << 16);
  Timestamp t = 0;
  for (auto _ : state) {
    ring.RecordComplete("bench", "event", t, 5, "n", 1);
    ++t;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceRecordComplete);

/// Snapshot + text exposition over a populated registry (`range(0)` metric
/// instances): the scrape-path cost, paid by the reader, never the pipeline.
void BM_MetricsSnapshotAndText(benchmark::State& state) {
  MetricsRegistry registry;
  int instances = static_cast<int>(state.range(0));
  // Counters and histograms live in their owners and are read by the
  // collector.
  static constexpr MetricSeries kFires{"datacell_transition_fires_total",
                                       MetricKind::kCounter, {"transition"},
                                       nullptr};
  static constexpr MetricSeries kLatency{
      "datacell_transition_fire_latency_us", MetricKind::kHistogram,
      {"transition"}, nullptr};
  std::vector<Counter> fires(static_cast<size_t>(instances));
  std::vector<Histogram> owned(static_cast<size_t>(instances));
  for (int i = 0; i < instances; ++i) {
    fires[static_cast<size_t>(i)].Inc(i);
    for (int v = 1; v < 1000; v *= 3) owned[static_cast<size_t>(i)].Observe(v);
  }
  registry.SetCollector([&fires, &owned](MetricsSnapshotData& out) {
    for (size_t i = 0; i < owned.size(); ++i) {
      const std::string t = "t" + std::to_string(i);
      out.Add(kFires, {t}, fires[i].value());
      out.Add(kLatency, {t}, owned[i].Snapshot());
    }
  });
  for (auto _ : state) {
    MetricsSnapshotData snap = registry.Snapshot();
    std::string text = registry.PrometheusText();
    benchmark::DoNotOptimize(snap);
    benchmark::DoNotOptimize(text);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsSnapshotAndText)->Arg(8)->Arg(64)->Arg(256);

/// BM_PipelineSelection's exact workload with the trace ring enabled: the
/// delta against bench_pipeline's numbers is the cost of recording every
/// sweep, firing and basket lock wait.
void BM_PipelineSelectionTraced(benchmark::State& state) {
  size_t batch = static_cast<size_t>(state.range(0));
  EngineOptions opts = bench::BenchEngineOptions();
  opts.trace_capacity = 1 << 16;
  Engine engine(opts);
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
  if (engine.trace() != nullptr) {
    state.counters["trace_events"] =
        static_cast<double>(engine.trace()->total_recorded());
  }
}
BENCHMARK(BM_PipelineSelectionTraced)
    ->RangeMultiplier(8)
    ->Range(1 << 10, 1 << 16)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace datacell

DATACELL_BENCH_MAIN();
