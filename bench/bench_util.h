#ifndef DATACELL_BENCH_BENCH_UTIL_H_
#define DATACELL_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>
#include <sched.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "adapters/generator.h"
#include "common/metrics.h"
#include "common/metrics_registry.h"
#include "core/engine.h"

namespace datacell {
namespace bench {

/// Engine configured for benchmarking: wall clock, deterministic stepped
/// scheduling (the benchmark loop drives Drain()).
inline EngineOptions BenchEngineOptions(
    ProcessingStrategy strategy = ProcessingStrategy::kSharedBaskets) {
  EngineOptions opts;
  opts.default_strategy = strategy;
  return opts;
}

/// Pre-generates `n` single-int64-column rows with values uniform in
/// [0, 1'000'000).
inline std::vector<Row> IntRows(size_t n, uint64_t seed = 42) {
  std::vector<ColumnSpec> cols(1);
  cols[0].type = DataType::kInt64;
  cols[0].int_min = 0;
  cols[0].int_max = 999999;
  UniformRowGenerator gen(cols, seed);
  return gen.NextBatch(n);
}

/// Pre-generates `n` (k int64 in [0, groups), v int64) rows.
inline std::vector<Row> GroupedRows(size_t n, int64_t groups,
                                    uint64_t seed = 42) {
  std::vector<ColumnSpec> cols(2);
  cols[0].type = DataType::kInt64;
  cols[0].int_min = 0;
  cols[0].int_max = groups - 1;
  cols[1].type = DataType::kInt64;
  cols[1].int_min = 0;
  cols[1].int_max = 999999;
  UniformRowGenerator gen(cols, seed);
  return gen.NextBatch(n);
}

/// Columnar batch of single-int64-column rows (schema: x int64).
inline TablePtr IntBatchTable(size_t n, uint64_t seed = 42) {
  auto t = std::make_shared<Table>("batch", Schema({{"x", DataType::kInt64}}));
  for (const Row& r : IntRows(n, seed)) {
    if (!t->AppendRow(r).ok()) break;
  }
  return t;
}

/// Columnar batch of (k, v) rows (schema: k int64, v int64).
inline TablePtr GroupedBatchTable(size_t n, int64_t groups,
                                  uint64_t seed = 42) {
  auto t = std::make_shared<Table>(
      "batch", Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}}));
  for (const Row& r : GroupedRows(n, groups, seed)) {
    if (!t->AppendRow(r).ok()) break;
  }
  return t;
}

/// Reports tuples/second from the loop's total tuple count.
inline void ReportTuplesPerSecond(benchmark::State& state, int64_t tuples) {
  state.counters["tuples/s"] =
      benchmark::Counter(static_cast<double>(tuples), benchmark::Counter::kIsRate);
  state.SetItemsProcessed(tuples);
}

/// Reports the standard latency percentile set as benchmark counters —
/// `<prefix>_p50_us`, `_p99_us`, `_mean_us`, `_max_us` — so the `--json`
/// output carries full distributions, not just means. No-op on empty stats.
inline void ReportLatencyPercentiles(benchmark::State& state,
                                     const std::string& prefix,
                                     const SampleStats& stats) {
  if (stats.count() == 0) return;
  state.counters[prefix + "_p50_us"] = stats.Percentile(0.5);
  state.counters[prefix + "_p99_us"] = stats.Percentile(0.99);
  state.counters[prefix + "_mean_us"] = stats.Mean();
  state.counters[prefix + "_max_us"] = stats.Max();
}

/// Same, from a live registry histogram (e.g. the engine's per-query
/// end-to-end latency): percentiles are log2-bucket estimates.
inline void ReportLatencyPercentiles(benchmark::State& state,
                                     const std::string& prefix,
                                     const HistogramSnapshot& hist) {
  if (hist.count == 0) return;
  state.counters[prefix + "_p50_us"] = hist.Percentile(0.5);
  state.counters[prefix + "_p99_us"] = hist.Percentile(0.99);
  state.counters[prefix + "_mean_us"] = hist.Mean();
  state.counters[prefix + "_max_us"] = static_cast<double>(hist.max);
}

/// CPUs this process may run on, as `nproc` counts them.
inline int UsableCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

/// Benchmark entry point with a `--json <file>` convenience flag: it expands
/// to google-benchmark's `--benchmark_out=<file> --benchmark_out_format=json`
/// so CI can collect machine-readable results with one short flag, e.g.
///   bench_parallel --json BENCH_parallel.json
/// Every result's context also records where it came from: the engine build
/// type, git commit and compiler (DATACELL_BENCH_* definitions set per target
/// by bench/CMakeLists.txt) and `nproc`.
inline int BenchMain(int argc, char** argv) {
  std::vector<std::string> expanded;
  expanded.reserve(static_cast<size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      expanded.push_back(std::string("--benchmark_out=") + argv[i + 1]);
      expanded.push_back("--benchmark_out_format=json");
      ++i;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      expanded.push_back(std::string("--benchmark_out=") + (argv[i] + 7));
      expanded.push_back("--benchmark_out_format=json");
    } else {
      expanded.push_back(argv[i]);
    }
  }
  std::vector<char*> cargv;
  cargv.reserve(expanded.size());
  for (std::string& s : expanded) cargv.push_back(s.data());
  int cargc = static_cast<int>(cargv.size());
  benchmark::Initialize(&cargc, cargv.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargv.data())) return 1;
  benchmark::AddCustomContext("datacell_build_type", DATACELL_BENCH_BUILD_TYPE);
  benchmark::AddCustomContext("datacell_commit", DATACELL_BENCH_COMMIT);
  benchmark::AddCustomContext("datacell_compiler", DATACELL_BENCH_COMPILER);
  benchmark::AddCustomContext("nproc", std::to_string(UsableCpus()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace bench
}  // namespace datacell

/// Replaces BENCHMARK_MAIN() to get the --json flag.
#define DATACELL_BENCH_MAIN()                                   \
  int main(int argc, char** argv) {                             \
    return ::datacell::bench::BenchMain(argc, argv);            \
  }

#endif  // DATACELL_BENCH_BENCH_UTIL_H_
