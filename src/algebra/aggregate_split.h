#ifndef DATACELL_ALGEBRA_AGGREGATE_SPLIT_H_
#define DATACELL_ALGEBRA_AGGREGATE_SPLIT_H_

#include <vector>

#include "algebra/plan.h"

namespace datacell {

/// Relation name a merge plan scans the concatenated partial rows under. The
/// bound relation is a partials row: the partial plan's output, plus a
/// trailing `ts` when that output carries none (PartialsRowSchema).
inline constexpr const char* kPartialsBinding = "__partials";

/// An aggregate-topped plan cut in two ("summarise parts, then combine").
/// `partial` runs unchanged on any part of the input: a shard's share of
/// the stream, or one basic window of a sliding window. `merge` runs over
/// Scan(kPartialsBinding) bound to the concatenated partial rows of all
/// parts and reproduces the plan's output, schema included.
struct AggregateSplit {
  PlanPtr partial;
  PlanPtr merge;
};

/// Splits `plan`, whose spine above its one Aggregate holds only Filter,
/// Project, Distinct, Sort and Limit. The partial aggregates the same
/// groups with decomposed specs (avg becomes sum + count); the merge
/// re-aggregates them (counts and sums re-sum, min/max re-min/max),
/// restores the aggregate's output schema and rebuilds the spine on top.
/// Fails with Unimplemented when the plan has no such shape.
Result<AggregateSplit> SplitAggregate(const PlanPtr& plan);

/// The row a merge plan binds for partial rows of schema `partial`.
Schema PartialsRowSchema(const Schema& partial);

/// Scan of kPartialsBinding over PartialsRowSchema(partial) that projects
/// the partial columns back, so a merge above sees the partial row.
Result<PlanPtr> ScanPartials(const Schema& partial);

/// Re-applies one spine operator (Filter, Project, Distinct, Sort, Limit)
/// of an original plan on top of `base`.
Result<PlanPtr> RebuildAbove(PlanPtr base, const PlanNode& node);

/// Concatenates `parts` (tables of schema `partial`) into one table of
/// PartialsRowSchema(partial), the relation a merge plan binds; a ts the
/// partial rows do not carry is stamped 0.
TablePtr PartialsRowTable(const Schema& partial,
                          const std::vector<TablePtr>& parts);

}  // namespace datacell

#endif  // DATACELL_ALGEBRA_AGGREGATE_SPLIT_H_
