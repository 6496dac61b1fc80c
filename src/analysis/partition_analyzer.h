#ifndef DATACELL_ANALYSIS_PARTITION_ANALYZER_H_
#define DATACELL_ANALYSIS_PARTITION_ANALYZER_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "algebra/plan.h"
#include "analysis/diagnostic.h"
#include "analysis/key_set.h"
#include "sql/planner.h"

namespace datacell {
namespace analysis {

/// Pass 3: partition-safety analysis. Classifies a compiled (continuous)
/// query for the coming shard fan-out by propagating the KeyFlow lattice
/// (key_set.h) bottom-up through the plan. Every verdict other than kPinned
/// comes with an executable witness: `partial_plan` runs unchanged on each
/// shard, and `merge_plan` (when present) recombines the per-shard outputs —
/// the split-merge oracle below replays exactly that recipe against
/// single-node execution.
enum class PartitionVerdict {
  kPartitionable,    // per-shard results concatenate to the global result
  kNeedsFinalMerge,  // per-shard partials + a merge plan reproduce it
  kNeedsBroadcast,   // partitionable once the listed inputs are replicated
  kPinned,           // no safe fan-out; runs on a single shard
};

enum class MergeKind {
  kNone,         // concatenation is the merge
  kReaggregate,  // merge plan re-aggregates decomposed partials
  kOrderedMerge, // merge plan re-sorts (k-way ts-merge equivalent)
};

/// How one stream input's rows reach the shards.
enum class ShardKeyKind {
  kHash,      // hash-split on `key_column`
  kAnySplit,  // any disjoint split works (no co-location constraint)
  kBroadcast, // every shard sees every row
};

struct ShardKey {
  std::string basket;
  std::string bind_name;
  ShardKeyKind kind = ShardKeyKind::kAnySplit;
  size_t key_column = 0;  // basket column index, kHash only
  std::string key_name;   // basket column name, kHash only
  bool declared = false;  // key matches the receptor's declared partition key
};

struct PartitionReport {
  PartitionVerdict verdict = PartitionVerdict::kPinned;
  std::string pinned_reason;
  std::vector<ShardKey> inputs;  // one per ContinuousInput, same order
  /// Static tables that must be replicated to every shard (join sides).
  std::vector<std::string> broadcast_relations;
  MergeKind merge = MergeKind::kNone;
  /// Time-window queries merge once per aligned window round.
  bool merge_per_window = false;
  /// Output column that still carries a shard key, when one survives the
  /// projections — downstream queries over the emitted stream inherit it.
  std::optional<size_t> output_key_column;
  std::string output_key_name;
  /// Per-shard plan. Equals the query plan unless merge == kReaggregate
  /// (aggregates decomposed, post-aggregate operators moved to the merge
  /// side) or kOrderedMerge (sort/limit moved to the merge side).
  PlanPtr partial_plan;
  /// Merge plan over Scan(kPartialsBinding) (algebra/aggregate_split.h),
  /// bound to the `<query>__partials` basket row; its output schema is the
  /// query's. Null when merge == kNone.
  PlanPtr merge_plan;

  /// Multi-line human-readable summary, for `\analyze`.
  std::string Describe() const;
  /// One JSON object (single line) — the machine-readable shard plan the
  /// sharding PR consumes, also emitted by `datacell-lint
  /// --partition-report`.
  std::string ToJson() const;
};

const char* PartitionVerdictName(PartitionVerdict v);
const char* MergeKindName(MergeKind m);

/// Declared receptor partition keys: basket name (lowercase) -> basket
/// column index, from `CREATE STREAM ... PARTITION BY <col>`.
using PartitionKeyMap = std::map<std::string, size_t>;

/// Runs pass 3 over a compiled query. Advisory A0xx diagnostics land in
/// `report` (never errors; pass 3 cannot reject a query). Non-continuous
/// queries classify as kPinned ("one-time query"). Plan shapes the planner
/// cannot produce (aggregates under joins, etc.) classify conservatively as
/// kPinned — pinning is always sound.
Result<PartitionReport> AnalyzePartitioning(const sql::CompiledQuery& query,
                                            const PartitionKeyMap& declared,
                                            AnalysisReport* report);

struct SplitMergeResult {
  bool equivalent = false;
  std::string detail;  // mismatch description, empty when equivalent
};

/// Soundness oracle: executes `query.plan` once over the full inputs, then
/// splits each stream input across `num_shards` shards per the report's
/// ShardKeys, runs `partial_plan` per shard, merges per `merge_plan` (or
/// concatenates), and compares. `input_tables[i]` is a full basket-shaped
/// table for `query.inputs[i]` (the consume predicate is applied here, as
/// the factory would); `statics` binds any static relations the plan scans.
/// For plans ending in LIMIT the comparison covers row count and sort-key
/// columns only (SQL leaves the cut line's tie-break unspecified); all other
/// plans compare full row multisets, with tolerance on doubles (per-shard
/// summation reassociates).
Result<SplitMergeResult> CheckSplitMergeEquivalence(
    const sql::CompiledQuery& query, const PartitionReport& report,
    const std::vector<TablePtr>& input_tables, const PlanBindings& statics,
    size_t num_shards = 2);

}  // namespace analysis
}  // namespace datacell

#endif  // DATACELL_ANALYSIS_PARTITION_ANALYZER_H_
