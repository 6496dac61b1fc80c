#ifndef DATACELL_CORE_FACTORY_H_
#define DATACELL_CORE_FACTORY_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "algebra/plan.h"
#include "algebra/profile.h"
#include "common/clock.h"
#include "core/basket.h"
#include "core/transition.h"
#include "core/window.h"
#include "sql/planner.h"

namespace datacell {

namespace analysis {
struct PartitionReport;
struct StateReport;
}  // namespace analysis

/// How a factory obtains input from its basket(s) — the processing
/// strategies of §2.5.
enum class ProcessingStrategy {
  /// Each query owns private input baskets; the receptor copies every tuple
  /// into each. The factory drains its basket exclusively.
  kSeparateBaskets,
  /// Queries on the same stream share one basket; each factory reads past
  /// its watermark without removing, and tuples are trimmed once every
  /// reader has seen them.
  kSharedBaskets,
  /// Disjoint-predicate chaining: the factory drains everything, keeps the
  /// tuples matching its basket predicate and forwards the rest to the next
  /// query's basket, shrinking downstream work.
  kChained,
};

const char* ProcessingStrategyToString(ProcessingStrategy s);

struct FactoryOptions {
  ProcessingStrategy strategy = ProcessingStrategy::kSeparateBaskets;
  WindowMode window_mode = WindowMode::kAuto;
  int priority = 0;
  /// Separate-baskets only: the input baskets are engine-created private
  /// replicas with no other reader, so tuples not matching the basket
  /// expression are dead and may be dropped on drain instead of retained.
  /// User-visible baskets keep the §2.6 partially-emptied-basket semantics.
  bool exclusive_private_inputs = false;
  /// The query's result already ends with a ts column (e.g. `select *`
  /// projects the stream's arrival ts last). The output basket then reuses
  /// it as its implicit timestamp — arrival times flow through unchanged —
  /// instead of stamping result-production time.
  bool output_carries_ts = false;
  /// Start every firing from a new PlanState (PlanRunner in
  /// algebra/plan.h) instead of keeping each node's state across firings.
  /// Selects no other executor: the differential harness's reference sets it
  /// to check kept state against fresh state.
  bool fresh_plan_state = false;
  /// Per-string byte estimate the state accounting (and the pass-4 gate
  /// below) prices string columns at; must match the analyzer's figure for
  /// static bound and measured occupancy to be comparable.
  int64_t state_string_bytes = 32;
  /// Pass-4 admission gate for factories created outside the engine: > 0
  /// runs the state-bound analyzer (without catalog hints) and rejects
  /// creation when the query's bound is unbounded or exceeds this many
  /// bytes. Engine-submitted queries are gated in SubmitCompiledQuery
  /// instead, where cardinality hints and the engine cap are in scope.
  size_t max_state_bytes = 0;
};

/// A continuous query cast into a resumable unit of execution (§2.3): it
/// holds the compiled plan, reads from its input baskets, runs the plan as
/// one bulk operation and appends qualifying tuples to its output basket.
/// The scheduler calls `Fire()`, which corresponds to one iteration of
/// Algorithm 1's loop; suspension between calls is implicit (state lives in
/// the object, as in MonetDB's factory co-routines).
class Factory final : public Transition {
 public:
  /// `input_baskets` aligns 1:1 with `query.inputs`. `static_bindings`
  /// resolves plan scans of non-stream relations (stream–table joins).
  /// For windowed queries there must be exactly one input.
  static Result<std::shared_ptr<Factory>> Create(
      std::string name, sql::CompiledQuery query,
      std::vector<BasketPtr> input_baskets, BasketPtr output,
      PlanBindings static_bindings, const Clock* clock,
      FactoryOptions options);

  bool Ready() const override;
  Result<int64_t> Fire() override;
  /// Smallest per-input availability: the Petri-net enabling amount.
  int64_t Backlog() const override;

  /// Chained strategy: tuples of input `input_index` that do NOT match the
  /// basket predicate are forwarded here instead of being dropped.
  void SetPassthrough(size_t input_index, BasketPtr basket);

  /// Retires this factory's shared-basket watermarks so remaining readers'
  /// trims are no longer held back. Call only when the factory will not
  /// fire again (it must already be out of the scheduler).
  void DetachReaders();
  /// The baskets this factory reads (for engine-side unwiring).
  std::vector<BasketPtr> input_baskets() const;
  /// The chained-strategy forwarding baskets, in input order (null entries
  /// for inputs without a passthrough). Net-analysis topology input.
  std::vector<BasketPtr> passthrough_baskets() const;

  const sql::CompiledQuery& query() const { return query_; }
  const BasketPtr& output() const { return output_; }
  /// Pass-3 partition-safety report, attached by the engine at registration
  /// (analysis/partition_analyzer.h). May be null for factories created
  /// outside the engine. The engine recomputes live overrides (multi-reader
  /// inputs, chained strategy) on top of this static verdict at \analyze and
  /// metrics time.
  void SetPartitionReport(std::shared_ptr<const analysis::PartitionReport> r) {
    partition_report_ = std::move(r);
  }
  const std::shared_ptr<const analysis::PartitionReport>& partition_report()
      const {
    return partition_report_;
  }
  /// Pass-4 state-bound report, attached by the engine at registration
  /// (analysis/state_analyzer.h). May be null for factories created outside
  /// the engine.
  void SetStateReport(std::shared_ptr<const analysis::StateReport> r) {
    state_report_ = std::move(r);
  }
  const std::shared_ptr<const analysis::StateReport>& state_report() const {
    return state_report_;
  }
  /// Measured cross-firing operator state in bytes (the window executor's or
  /// the plan runner's StateBytes), refreshed at the end of every Fire — the
  /// ground truth the pass-4 oracle and the datacell_query_state_bytes gauge
  /// compare against the static bound.
  size_t state_bytes() const {
    return state_bytes_.load(std::memory_order_relaxed);
  }
  /// High-water mark of state_bytes() across this factory's lifetime.
  size_t state_bytes_high_water() const {
    return state_high_water_.load(std::memory_order_relaxed);
  }
  ProcessingStrategy strategy() const { return options_.strategy; }
  /// "none", "reeval" or "incremental".
  const char* window_mode_name() const {
    return window_ == nullptr ? "none" : window_->mode_name();
  }
  /// The window executor; null for unwindowed queries.
  const WindowExecutor* window() const { return window_.get(); }
  /// The MAL rendering of the wrapped plan (explain output).
  std::string ExplainPlan() const;
  /// The execution pipeline \explain prints: the runner's node tree, or the
  /// window executor's (its mode and the plans it runs).
  std::string PipelineDescription() const;

  /// Toggles per-step profiling for this factory's firings. The profile's
  /// step list exists from creation either way — only the recording is
  /// switched — so counters accumulate across off/on cycles and \profile
  /// after a disable still shows what was gathered.
  void SetProfiling(bool on) {
    profiling_.store(on, std::memory_order_relaxed);
  }
  bool profiling() const { return profiling_.load(std::memory_order_relaxed); }
  /// The per-step profile (always non-null after Create). Readers may
  /// snapshot it concurrently with firings.
  const PipelineProfile& profile() const { return *profile_; }
  /// \profile output: the pipeline description followed by the per-step
  /// counter table.
  std::string ProfileReport() const;

  int64_t results_emitted() const {
    return results_emitted_.load(std::memory_order_relaxed);
  }
  int64_t plan_errors() const {
    return plan_errors_.load(std::memory_order_relaxed);
  }

#if DATACELL_DEBUG_CHECKS_ENABLED
  /// Test-only (debug-check builds): marks the factory as already in Fire(),
  /// so the next Fire() trips the exactly-once re-entrancy check — the
  /// deliberate violation path for the invariant abort tests.
  void TestOnlyBeginFire() { in_fire_.store(true, std::memory_order_release); }
#endif

 private:
  struct InputBinding {
    BasketPtr basket;
    const sql::ContinuousInput* spec;  // points into query_.inputs
    size_t reader_id = 0;              // shared strategy only
    BasketPtr passthrough;             // chained strategy only
#if DATACELL_DEBUG_CHECKS_ENABLED
    // Cumulative tuples this factory consumed from the basket; written only
    // inside Fire() (single-writer by the exactly-once guard). A tuple
    // consumed twice would eventually push this past the basket's appended
    // total, which Fire() DC_CHECKs.
    int64_t taken = 0;
#endif
  };

  Factory(std::string name, sql::CompiledQuery query, BasketPtr output,
          const Clock* clock, FactoryOptions options);

  /// Recomputes state_bytes() / the high-water mark. Called from Fire()
  /// (single-writer) and once at creation for the registration-built join
  /// index.
  void UpdateStateAccounting();

  /// Tuples available on input `i` under the current strategy.
  size_t AvailableOn(const InputBinding& in) const;
  /// Obtains (and consumes, per strategy) the next input slice.
  Result<TablePtr> TakeSlice(InputBinding& in);

  sql::CompiledQuery query_;
  std::vector<InputBinding> inputs_;
  BasketPtr output_;
  const Clock* clock_;
  FactoryOptions options_;
  size_t min_tuples_ = 1;
  // Exactly one is set: a windowed query's executor, or the plan's runner.
  std::unique_ptr<WindowExecutor> window_;
  std::unique_ptr<PlanRunner> runner_;
  // Built once at Create (steps of the plans Fire() runs); recording is
  // gated by profiling_ per firing.
  std::unique_ptr<PipelineProfile> profile_;
  std::shared_ptr<const analysis::PartitionReport> partition_report_;
  std::shared_ptr<const analysis::StateReport> state_report_;
  // Single-writer (Fire) / many-reader state accounting cells.
  std::atomic<size_t> state_bytes_{0};
  std::atomic<size_t> state_high_water_{0};
  std::atomic<bool> profiling_{false};
  std::atomic<int64_t> results_emitted_{0};
  std::atomic<int64_t> plan_errors_{0};
#if DATACELL_DEBUG_CHECKS_ENABLED
  // Exactly-once firing guard: set for the duration of Fire(). The scheduler
  // claims a transition before firing it, so two overlapping Fires on the
  // same factory mean the claim protocol broke and inputs would be consumed
  // twice — caught here instead of surfacing as silent duplicate results.
  std::atomic<bool> in_fire_{false};
#endif
};

using FactoryPtr = std::shared_ptr<Factory>;

}  // namespace datacell

#endif  // DATACELL_CORE_FACTORY_H_
