// Experiment E16 (docs/EXPERIMENTS.md): the cost of self-observation. The
// same selection pipeline as bench_pipeline's BM_PipelineSelection is run
// with the observability features switched on one at a time — the per-step
// profiler, the monitor receptor, and both together — so the deltas against
// the baseline variant are the features' steady-state overheads (budget:
// < 2% for monitor + profiler). The remaining benches price the monitor
// tick and an HTTP /metrics scrape in isolation.

#include <benchmark/benchmark.h>

#include <memory>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench/bench_util.h"
#include "net/observability.h"

namespace datacell {
namespace {

constexpr size_t kBatch = 4096;

/// The shared workload: one selection query, columnar ingest of
/// kBatch tuples per iteration, deterministic drain.
void RunSelectionPipeline(benchmark::State& state, const EngineOptions& opts) {
  Engine engine(opts);
  if (!engine.ExecuteSql("create basket r (x int)").ok()) return;
  auto q = engine.SubmitContinuousQuery(
      "sel", "select x from [select * from r] as s where s.x < 500000");
  if (!q.ok()) return;
  auto sink = std::make_shared<CountingSink>();
  if (!engine.Subscribe(*q, sink).ok()) return;
  auto batch_table = bench::IntBatchTable(kBatch);
  int64_t tuples = 0;
  for (auto _ : state) {
    if (!engine.IngestTable("r", *batch_table).ok()) return;
    engine.Drain();
    tuples += static_cast<int64_t>(kBatch);
  }
  bench::ReportTuplesPerSecond(state, tuples);
}

void BM_ObserveBaseline(benchmark::State& state) {
  RunSelectionPipeline(state, bench::BenchEngineOptions());
}
BENCHMARK(BM_ObserveBaseline)->Unit(benchmark::kMicrosecond);

void BM_ObserveProfiled(benchmark::State& state) {
  EngineOptions opts = bench::BenchEngineOptions();
  opts.profile_queries = true;
  RunSelectionPipeline(state, opts);
}
BENCHMARK(BM_ObserveProfiled)->Unit(benchmark::kMicrosecond);

void BM_ObserveMonitored(benchmark::State& state) {
  EngineOptions opts = bench::BenchEngineOptions();
  // 10 Hz — an aggressive production cadence (Prometheus default is 1/15s).
  opts.monitor_tick_us = 100'000;
  RunSelectionPipeline(state, opts);
}
BENCHMARK(BM_ObserveMonitored)->Unit(benchmark::kMicrosecond);

void BM_ObserveFull(benchmark::State& state) {
  EngineOptions opts = bench::BenchEngineOptions();
  opts.profile_queries = true;
  opts.monitor_tick_us = 100'000;
  RunSelectionPipeline(state, opts);
}
BENCHMARK(BM_ObserveFull)->Unit(benchmark::kMicrosecond);

/// One monitor tick in isolation: snapshot the registry, diff, deliver the
/// three telemetry batches. Simulated clock so every iteration is a tick.
void BM_MonitorTick(benchmark::State& state) {
  EngineOptions opts;
  opts.use_wall_clock = false;
  opts.monitor_tick_us = 1;
  Engine engine(opts);
  if (!engine.ExecuteSql("create basket r (x int)").ok()) return;
  auto q = engine.SubmitContinuousQuery(
      "sel", "select x from [select * from r] as s where s.x < 500000");
  if (!q.ok()) return;
  int64_t ticks = 0;
  for (auto _ : state) {
    engine.simulated_clock()->Advance(2);
    engine.Drain();  // only the monitor is ready
    ++ticks;
  }
  state.SetItemsProcessed(ticks);
}
BENCHMARK(BM_MonitorTick)->Unit(benchmark::kMicrosecond);

/// A full HTTP /metrics scrape round-trip against a live engine: connect,
/// GET, render, read. Prices what a Prometheus scraper costs the engine.
void BM_HttpMetricsScrape(benchmark::State& state) {
  Engine engine(bench::BenchEngineOptions());
  if (!engine.ExecuteSql("create basket r (x int)").ok()) return;
  ObservabilityServer server(&engine);
  if (!server.Start(0).ok()) return;
  for (auto _ : state) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd);
      return;
    }
    const char req[] = "GET /metrics HTTP/1.0\r\n\r\n";
    (void)!::send(fd, req, sizeof(req) - 1, 0);
    char buf[4096];
    while (::recv(fd, buf, sizeof(buf), 0) > 0) {
    }
    ::close(fd);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HttpMetricsScrape)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace datacell

DATACELL_BENCH_MAIN();
