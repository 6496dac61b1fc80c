// Micro experiment (DESIGN.md "Micro"): throughput of the columnar bulk
// primitives the DataCell reuses from the kernel — the paper's premise that
// building on a column store gives the stream engine fast operators for free.

#include <benchmark/benchmark.h>

#include "algebra/operators.h"
#include "algebra/plan.h"
#include "bench/bench_util.h"

namespace datacell {
namespace {

BatPtr RandomInt64Bat(size_t n, uint64_t seed = 1) {
  Rng rng(seed);
  auto b = std::make_shared<Bat>(DataType::kInt64);
  for (size_t i = 0; i < n; ++i) b->AppendInt64(rng.Uniform(0, 999999));
  return b;
}

/// Range selection at a given selectivity (state.range(1) percent).
void BM_SelectRange(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  int64_t hi = state.range(1) * 10000 - 1;  // selectivity% of [0, 1e6)
  BatPtr b = RandomInt64Bat(n);
  for (auto _ : state) {
    auto positions = SelectRangeInt64(*b, 0, hi);
    benchmark::DoNotOptimize(positions);
  }
  bench::ReportTuplesPerSecond(state,
                               static_cast<int64_t>(state.iterations()) *
                                   static_cast<int64_t>(n));
}
BENCHMARK(BM_SelectRange)
    ->ArgsProduct({{1 << 10, 1 << 14, 1 << 18}, {1, 10, 50, 100}});

void BM_HashJoin(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  BatPtr l = RandomInt64Bat(n, 1);
  BatPtr r = RandomInt64Bat(n, 2);
  for (auto _ : state) {
    auto jr = HashJoin(*l, *r);
    benchmark::DoNotOptimize(jr);
  }
  bench::ReportTuplesPerSecond(state,
                               static_cast<int64_t>(state.iterations()) *
                                   static_cast<int64_t>(2 * n));
}
BENCHMARK(BM_HashJoin)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_GroupByAggregate(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  int64_t groups = state.range(1);
  auto rows = bench::GroupedRows(n, groups);
  auto t = std::make_shared<Table>(
      "t", Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}}));
  for (const Row& r : rows) {
    if (!t->AppendRow(r).ok()) return;
  }
  for (auto _ : state) {
    auto g = GroupBy(*t, {0});
    Bat sums(DataType::kDouble);
    Status st = AggregateByGroup(*t->column(1), AggFunc::kSum,
                                 g->group_ids.data(), nullptr, n,
                                 g->num_groups, &sums);
    benchmark::DoNotOptimize(st);
    benchmark::DoNotOptimize(sums);
  }
  bench::ReportTuplesPerSecond(state,
                               static_cast<int64_t>(state.iterations()) *
                                   static_cast<int64_t>(n));
}
BENCHMARK(BM_GroupByAggregate)
    ->ArgsProduct({{1 << 14, 1 << 17}, {10, 1000, 100000}});

void BM_Sort(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto rows = bench::IntRows(n);
  auto t = std::make_shared<Table>("t", Schema({{"v", DataType::kInt64}}));
  for (const Row& r : rows) {
    if (!t->AppendRow(r).ok()) return;
  }
  for (auto _ : state) {
    auto perm = SortPositions(*t, {{0, true}});
    benchmark::DoNotOptimize(perm);
  }
  bench::ReportTuplesPerSecond(state,
                               static_cast<int64_t>(state.iterations()) *
                                   static_cast<int64_t>(n));
}
BENCHMARK(BM_Sort)->Arg(1 << 12)->Arg(1 << 16);

/// Full plan execution through the interpreter (select + project).
void BM_PlanExecution(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto rows = bench::IntRows(n);
  Schema schema({{"x", DataType::kInt64}});
  auto t = std::make_shared<Table>("r", schema);
  for (const Row& r : rows) {
    if (!t->AppendRow(r).ok()) return;
  }
  auto scan = *MakeScan("r", schema);
  auto col = Expr::Column(0, "x", DataType::kInt64);
  auto filtered = *MakeFilter(
      scan, Expr::Binary(BinaryOp::kLt, col, Expr::Int(500000)));
  auto plan = *MakeProject(
      filtered, {Expr::Binary(BinaryOp::kMul, col, Expr::Int(3))}, {"x3"});
  PlanBindings bindings{{"r", t}};
  for (auto _ : state) {
    auto result = ExecutePlan(*plan, bindings);
    benchmark::DoNotOptimize(result);
  }
  bench::ReportTuplesPerSecond(state,
                               static_cast<int64_t>(state.iterations()) *
                                   static_cast<int64_t>(n));
}
BENCHMARK(BM_PlanExecution)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

}  // namespace
}  // namespace datacell

DATACELL_BENCH_MAIN()
