// Pass-3 partition analysis runs once per SubmitContinuousQuery and again on
// every Engine::Analyze() / metrics refresh, so it sits on the registration
// and observability paths. These benchmarks keep its cost visible: the
// dataflow pass itself over representative plan shapes and the full
// registration path with the pass included.

#include <benchmark/benchmark.h>

#include "analysis/partition_analyzer.h"
#include "bench/bench_util.h"

namespace datacell {
namespace {

void SetUpCatalog(Engine& engine) {
  Status s = engine
                 .ExecuteScript(
                     "create basket trades (sym varchar, price double, "
                     "qty int) partition by sym;"
                     "create basket quotes (sym varchar, bid double) "
                     "partition by sym;"
                     "create table dims (sym varchar, sector varchar);")
                 .status();
  if (!s.ok()) std::abort();
}

const char* QueryForShape(const std::string& shape) {
  if (shape == "filter") {
    return "select sym, price from [select * from trades] as t "
           "where t.price > 10.0";
  }
  if (shape == "group_by_key") {
    return "select sym, sum(qty) as total from [select * from trades] as t "
           "group by sym";
  }
  if (shape == "join_agg") {
    return "select q.bid, sum(t.qty) as vol from [select * from trades] as t "
           "join [select * from quotes] as q on t.sym = q.sym group by q.bid";
  }
  return "select avg(price) as mean from [select * from trades] as t";
}

// The pass alone: registration already compiled and attached the report, so
// re-running AnalyzePartitioning on the stored CompiledQuery isolates the
// dataflow walk plus merge-plan synthesis from parse/bind/plan cost.
void BM_AnalyzePartitioning(benchmark::State& state, const char* shape) {
  Engine engine(bench::BenchEngineOptions());
  SetUpCatalog(engine);
  auto q = engine.SubmitContinuousQuery("bm", QueryForShape(shape));
  if (!q.ok()) std::abort();
  auto info = engine.GetQuery(*q);
  if (!info.ok()) std::abort();
  const sql::CompiledQuery& cq = (*info)->factory->query();
  analysis::PartitionKeyMap keys = engine.DeclaredPartitionKeys();
  for (auto _ : state) {
    analysis::AnalysisReport diags;
    auto rep = analysis::AnalyzePartitioning(cq, keys, &diags);
    benchmark::DoNotOptimize(rep);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_AnalyzePartitioning, filter, "filter");
BENCHMARK_CAPTURE(BM_AnalyzePartitioning, group_by_key, "group_by_key");
BENCHMARK_CAPTURE(BM_AnalyzePartitioning, join_agg, "join_agg");
BENCHMARK_CAPTURE(BM_AnalyzePartitioning, scalar_avg, "scalar_avg");

// The whole registration path (parse, bind, plan, passes 1+3, net wiring),
// measured as submit+remove pairs.
void BM_SubmitWithPartitionPass(benchmark::State& state) {
  Engine engine(bench::BenchEngineOptions());
  SetUpCatalog(engine);
  size_t i = 0;
  for (auto _ : state) {
    auto q = engine.SubmitContinuousQuery("bm" + std::to_string(i++),
                                          QueryForShape("join_agg"));
    if (!q.ok()) std::abort();
    if (!engine.RemoveContinuousQuery(*q).ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SubmitWithPartitionPass);

// Pass 4 alone: the state-bound walk over the same stored plan shapes —
// the per-query cost SubmitContinuousQuery and Analyze() each pay.
void BM_AnalyzeStateBounds(benchmark::State& state, const char* shape) {
  Engine engine(bench::BenchEngineOptions());
  SetUpCatalog(engine);
  auto q = engine.SubmitContinuousQuery("bm", QueryForShape(shape));
  if (!q.ok()) std::abort();
  auto info = engine.GetQuery(*q);
  if (!info.ok()) std::abort();
  const sql::CompiledQuery& cq = (*info)->factory->query();
  analysis::CardinalityMap hints = engine.DeclaredCardinalities();
  analysis::StateAnalyzerOptions sopts;
  for (auto _ : state) {
    analysis::AnalysisReport diags;
    auto rep = analysis::AnalyzeStateBounds(cq, hints, sopts, &diags);
    benchmark::DoNotOptimize(rep);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_AnalyzeStateBounds, filter, "filter");
BENCHMARK_CAPTURE(BM_AnalyzeStateBounds, group_by_key, "group_by_key");
BENCHMARK_CAPTURE(BM_AnalyzeStateBounds, join_agg, "join_agg");
BENCHMARK_CAPTURE(BM_AnalyzeStateBounds, scalar_avg, "scalar_avg");

}  // namespace
}  // namespace datacell

BENCHMARK_MAIN();
