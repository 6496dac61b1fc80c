// Ablation for the multi-threaded architecture (§2.3: "every single
// component is an independent thread"): wall-clock time for a fixed work
// volume (four independent streams, each a heavy aggregation query) as
// scheduler workers increase. Independent factories fire side by side, so
// wall time should fall until workers reach the factory count.

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <thread>

#include "bench/bench_util.h"

namespace datacell {
namespace {

void BM_SchedulerWorkers(benchmark::State& state) {
  size_t workers = static_cast<size_t>(state.range(0));
  constexpr int kStreams = 4;
  constexpr int kBatches = 12;
  constexpr size_t kBatch = 16384;
  double total_ms = 0;
  for (auto _ : state) {
    Engine engine;  // wall clock; threaded mode
    std::vector<FactoryPtr> factories;
    for (int i = 0; i < kStreams; ++i) {
      std::string stream = "r" + std::to_string(i);
      if (!engine.ExecuteSql("create basket " + stream + " (k int, v int)")
               .ok()) {
        return;
      }
      // Heavy per-firing work: group + multiple aggregates + sort.
      auto q = engine.SubmitContinuousQuery(
          "q" + std::to_string(i),
          "select k, count(*) as c, sum(v) as s, avg(v) as a "
          "from [select * from " + stream + "] as w group by k order by s");
      if (!q.ok()) {
        state.SkipWithError(q.status().ToString().c_str());
        return;
      }
      auto info = engine.GetQuery(*q);
      if (!info.ok()) return;
      factories.push_back((*info)->factory);
    }
    auto batch = bench::GroupedBatchTable(kBatch, 512);
    auto start = std::chrono::steady_clock::now();
    if (!engine.Start(workers).ok()) return;
    for (int b = 0; b < kBatches; ++b) {
      for (int i = 0; i < kStreams; ++i) {
        if (!engine.IngestTable("r" + std::to_string(i), *batch).ok()) return;
      }
    }
    // Wait until every factory has consumed its full input volume (firings
    // may merge several ingest batches, so count tuples, not deliveries).
    constexpr int64_t kExpected = int64_t{kBatches} * kBatch;
    bool done = false;
    while (!done) {
      done = true;
      for (const auto& f : factories) {
        if (f->tuples_processed() < kExpected) done = false;
      }
      if (!done) std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    auto end = std::chrono::steady_clock::now();
    engine.Stop();
    total_ms +=
        std::chrono::duration_cast<std::chrono::microseconds>(end - start)
            .count() /
        1000.0;
  }
  state.counters["wall_ms"] =
      total_ms / static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations() * kStreams * kBatches *
                          static_cast<int64_t>(kBatch));
}
BENCHMARK(BM_SchedulerWorkers)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace
}  // namespace datacell

DATACELL_BENCH_MAIN()
