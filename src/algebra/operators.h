#ifndef DATACELL_ALGEBRA_OPERATORS_H_
#define DATACELL_ALGEBRA_OPERATORS_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "storage/bat.h"
#include "storage/table.h"

namespace datacell {

/// Bulk relational primitives over BATs — the "highly optimized relational
/// primitives" each MAL operator wraps. They return candidate position
/// lists or fresh BATs; they never mutate their inputs.

// --- Execution context ---------------------------------------------------

/// Knobs threaded from the engine into the bulk kernels. With a pool set,
/// kernels over inputs of at least `parallel_threshold` values split the
/// input into fixed-size morsels, fan them across the pool (the calling
/// thread participates) and merge the per-morsel results in input order —
/// position lists and join pairs come back identical to the scalar ones
/// (floating-point aggregate sums may differ in rounding, as partial sums
/// associate differently). Small inputs — the common per-firing basket
/// slice — never pay the fan-out overhead: they stay on the scalar path.
struct ExecContext {
  ThreadPool* pool = nullptr;
  /// Inputs smaller than this never parallelize (fan-out costs more than it
  /// saves on small baskets).
  size_t parallel_threshold = 128 * 1024;
  /// Values per morsel (~64K: a few L2-sized chunks per worker even at the
  /// threshold, so claiming stays self-balancing).
  size_t morsel_size = 64 * 1024;

  bool ShouldParallelize(size_t n) const {
    return pool != nullptr && pool->num_threads() > 0 &&
           n >= parallel_threshold && n > morsel_size;
  }
  size_t NumMorsels(size_t n) const {
    return (n + morsel_size - 1) / morsel_size;
  }
  /// Observability: morsels dispatched by the parallel kernels accumulate
  /// here when set. A raw atomic (not a registry Counter) keeps the kernel
  /// layer free of metric types; the engine points it at its registry cell.
  std::atomic<int64_t>* morsel_counter = nullptr;
  void CountMorsels(size_t n) const {
    if (morsel_counter != nullptr) {
      morsel_counter->fetch_add(static_cast<int64_t>(n),
                                std::memory_order_relaxed);
    }
  }
  /// Per-step pipeline profiler (algebra/profile.h). Null — the default —
  /// disables profiling: like morsel_counter, executors pay one pointer test
  /// per step. The factory points this at its profile while profiling is on.
  class PipelineProfile* profile = nullptr;
};

// --- Selection ------------------------------------------------------------

/// Positions i where lo <= b[i] <= hi (null positions never qualify).
/// Bounds are inclusive; pass nullopt for an open end. This is the
/// monetdb.select(input, v1, v2) of the paper's Algorithm 1.
std::vector<size_t> SelectRangeInt64(const Bat& b, std::optional<int64_t> lo,
                                     std::optional<int64_t> hi,
                                     const ExecContext& ctx = {});
std::vector<size_t> SelectRangeDouble(const Bat& b, std::optional<double> lo,
                                      std::optional<double> hi,
                                      const ExecContext& ctx = {});
/// Positions where b[i] == v.
std::vector<size_t> SelectEqString(const Bat& b, const std::string& v,
                                   const ExecContext& ctx = {});

/// Intersects two sorted position lists (conjunctive selections).
std::vector<size_t> IntersectPositions(const std::vector<size_t>& a,
                                       const std::vector<size_t>& b);
/// Unions two sorted position lists (disjunctive selections).
std::vector<size_t> UnionPositions(const std::vector<size_t>& a,
                                   const std::vector<size_t>& b);
/// Complement of a sorted position list against [0, n).
std::vector<size_t> ComplementPositions(const std::vector<size_t>& a, size_t n);

// --- Join -------------------------------------------------------------

/// Equi-join on one key column per side. Returns aligned position pairs
/// (left_positions[i], right_positions[i]) for every match; build side is
/// the right input (hash join). Nulls never join. The build stays serial;
/// with a pool in `ctx` the probe side fans out in morsels over the
/// read-only hash table.
struct JoinResult {
  std::vector<size_t> left_positions;
  std::vector<size_t> right_positions;
};
Result<JoinResult> HashJoin(const Bat& left_key, const Bat& right_key,
                            const ExecContext& ctx = {});

// --- Grouping & aggregation -------------------------------------------

/// Assigns each row a dense group id by the combined value of `key_columns`
/// (hash grouping). `representatives[g]` is the first row of group g.
struct Grouping {
  std::vector<size_t> group_ids;        // size = num input rows
  std::vector<size_t> representatives;  // size = num groups
  size_t num_groups = 0;
};
Result<Grouping> GroupBy(const Table& input,
                         const std::vector<size_t>& key_columns);

enum class AggFunc { kCount, kSum, kMin, kMax, kAvg };

const char* AggFuncToString(AggFunc f);

/// Decomposable aggregate state: mergeable partials, the basis of the
/// incremental (basic-window) evaluation mode of §3.1. Covers count, sum,
/// avg (= sum/count); min/max are kept but are only *insert*-decomposable —
/// merging is fine, subtracting an expired sub-window is not, which is
/// exactly why the basic-window model re-combines per-sub-window summaries
/// instead of subtracting.
struct AggPartial {
  int64_t count = 0;    // non-null inputs
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void AddValue(double v) {
    ++count;
    sum += v;
    if (v < min) min = v;
    if (v > max) max = v;
  }
  void Merge(const AggPartial& o) {
    count += o.count;
    sum += o.sum;
    if (o.min < min) min = o.min;
    if (o.max > max) max = o.max;
  }
  /// Extracts the final value for `f`; returns null for empty input
  /// (except count, which is 0).
  Value Finalize(AggFunc f) const;
};

/// Aggregates `values` grouped by `grouping`; `values` may be any numeric
/// BAT (count also accepts strings). Returns one partial per group. With a
/// pool in `ctx`, morsels accumulate private per-group partial vectors that
/// are merged pairwise (AggPartial::Merge) — the decomposability that makes
/// the incremental window mode work also makes the kernel parallel.
Result<std::vector<AggPartial>> AggregateByGroup(const Bat& values,
                                                 const Grouping& grouping,
                                                 const ExecContext& ctx = {});
/// Aggregate over all rows (single group), optionally restricted to
/// `positions` (pass nullptr for all).
Result<AggPartial> AggregateAll(const Bat& values,
                                const std::vector<size_t>* positions,
                                const ExecContext& ctx = {});

// --- Ordering ---------------------------------------------------------

struct SortKey {
  size_t column = 0;
  bool ascending = true;
};

/// Stable sort: returns the permutation of row positions that orders
/// `input` by `keys`.
Result<std::vector<size_t>> SortPositions(const Table& input,
                                          const std::vector<SortKey>& keys);

/// Positions of the first occurrence of each distinct full row.
std::vector<size_t> DistinctPositions(const Table& input);

/// First `n` positions after sorting (top-n without full materialisation of
/// the sorted table).
Result<std::vector<size_t>> TopN(const Table& input,
                                 const std::vector<SortKey>& keys, size_t n);

}  // namespace datacell

#endif  // DATACELL_ALGEBRA_OPERATORS_H_
