#ifndef DATACELL_ALGEBRA_OPERATORS_H_
#define DATACELL_ALGEBRA_OPERATORS_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/bat.h"
#include "storage/table.h"

namespace datacell {

/// Bulk relational primitives over BATs — the "highly optimized relational
/// primitives" each MAL operator wraps. They return candidate position
/// lists or fresh BATs; they never mutate their inputs.

// --- Selection ------------------------------------------------------------

/// Positions i where lo <= b[i] <= hi (null positions never qualify).
/// Bounds are inclusive; pass nullopt for an open end. This is the
/// monetdb.select(input, v1, v2) of the paper's Algorithm 1.
std::vector<size_t> SelectRangeInt64(const Bat& b, std::optional<int64_t> lo,
                                     std::optional<int64_t> hi);
std::vector<size_t> SelectRangeDouble(const Bat& b, std::optional<double> lo,
                                      std::optional<double> hi);
/// The same selects into `out` (replaced; its capacity is reused).
void SelectRangeInt64(const Bat& b, std::optional<int64_t> lo,
                      std::optional<int64_t> hi, std::vector<size_t>* out);
void SelectRangeDouble(const Bat& b, std::optional<double> lo,
                       std::optional<double> hi, std::vector<size_t>* out);
/// Positions where b[i] == v.
std::vector<size_t> SelectEqString(const Bat& b, const std::string& v);

/// Complement of a sorted position list against [0, n).
std::vector<size_t> ComplementPositions(const std::vector<size_t>& a, size_t n);

// --- Join -------------------------------------------------------------

/// Equi-join on one key column per side. Returns aligned position pairs
/// (left_positions[i], right_positions[i]) for every match; build side is
/// the right input (hash join). Nulls never join.
struct JoinResult {
  std::vector<size_t> left_positions;
  std::vector<size_t> right_positions;
};
Result<JoinResult> HashJoin(const Bat& left_key, const Bat& right_key);

// --- Grouping & aggregation -------------------------------------------

/// Assigns each row a dense group id by the combined value of `key_columns`
/// (hash grouping). `representatives[g]` is the first row of group g.
struct Grouping {
  std::vector<uint32_t> group_ids;      // size = num input rows
  std::vector<size_t> representatives;  // size = num groups
  size_t num_groups = 0;
};
Result<Grouping> GroupBy(const Table& input,
                         const std::vector<size_t>& key_columns);

enum class AggFunc { kCount, kSum, kMin, kMax, kAvg };

const char* AggFuncToString(AggFunc f);

/// Aggregate state of one group: count, sum, min and max of its non-null
/// inputs, accumulated in input row order; Finalize reads any AggFunc off
/// it. Incremental windows and shard merges combine partial results by
/// re-aggregating them through merge plans (algebra/aggregate_split.h), not
/// through this struct.
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
  /// Extracts the final value for `f`; returns null for empty input
  /// (except count, which is 0).
  Value Finalize(AggFunc f) const;
};

/// Appends `func` over `values` per group to `out`, one value per group:
/// count as int64, the others as double, null for a group without non-null
/// input. Aggregated row k reads values[rows[k]] (values[k] when `rows` is
/// null) and belongs to group group_ids[k] < num_groups. Each group
/// accumulates its non-null values in row order with AggPartial's
/// operations, so results match AggregateAll's bit for bit. `values` may be
/// any numeric or bool BAT.
Status AggregateByGroup(const Bat& values, AggFunc func,
                        const uint32_t* group_ids, const size_t* rows,
                        size_t n, size_t num_groups, Bat* out);
/// Aggregate over all rows (single group), optionally restricted to
/// `positions` (pass nullptr for all).
Result<AggPartial> AggregateAll(const Bat& values,
                                const std::vector<size_t>* positions);

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
