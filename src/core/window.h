#ifndef DATACELL_CORE_WINDOW_H_
#define DATACELL_CORE_WINDOW_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "algebra/plan.h"
#include "algebra/profile.h"
#include "common/clock.h"
#include "sql/planner.h"

namespace datacell {

/// How a windowed continuous query is evaluated (§3.1).
enum class WindowMode {
  /// Incremental when the plan shape allows it, else re-evaluation.
  kAuto,
  /// Process each complete window from scratch — always applicable.
  kReEvaluation,
  /// Basic-window model (Zhu & Shasha): the window is split into
  /// slide-sized sub-windows, each summarised once by the partial plan of
  /// the query's aggregate split (algebra/aggregate_split.h); an emission
  /// runs the merge plan over the live summaries. Only aggregate-topped
  /// plans over one scan, with slide dividing size, qualify.
  kIncremental,
};

/// Executes the windowed portion of a continuous query. The owning factory
/// drains new tuples from its input basket and hands them to `Advance()`,
/// which evaluates every window that completes and returns the concatenated
/// results (empty table when no window completed).
///
/// Windows are realised purely by scheduling and plan re-binding over the
/// unchanged relational kernel — the paper's constraint of not adding
/// special window operators. Every plan an executor runs goes through a
/// PlanRunner, so it is specialized exactly when a factory's plan would be.
class WindowExecutor {
 public:
  virtual ~WindowExecutor() = default;

  /// `ctx` reaches every plan run: its profile records the steps
  /// RegisterProfileSteps added, and its pool serves the kernels.
  virtual Result<TablePtr> Advance(const Table& new_tuples,
                                   const ExecContext& ctx = ExecContext{}) = 0;

  /// Bytes held between firings: raw rows x input row bytes plus partial
  /// rows x partial row bytes, both priced by Schema::EstimatedRowBytes,
  /// plus the hash and group tables of the plans the executor runs
  /// (PlanRunner::StateBytes).
  virtual size_t StateBytes(int64_t string_bytes) const = 0;

  /// Tuples dropped on arrival because their ts is below the start of the
  /// oldest window still open (time windows only). Safe to read while
  /// Advance() runs.
  int64_t late_dropped() const {
    return late_dropped_.load(std::memory_order_relaxed);
  }

  /// "reeval" or "incremental" (for introspection and EXPERIMENTS.md).
  virtual const char* mode_name() const = 0;

  /// The plans this executor runs, for \explain and \profile.
  virtual std::string Describe() const = 0;

  /// Adds the steps of the plans this executor runs to `profile`. Call once,
  /// before the first profiled Advance().
  virtual void RegisterProfileSteps(PipelineProfile* profile) = 0;

  /// Builds an executor for `query` (which must be windowed and have exactly
  /// one stream input). `static_bindings` supplies non-stream relations the
  /// plan joins against. kAuto picks incremental when the plan qualifies.
  /// `specialize` is the factory's option of that name.
  static Result<std::unique_ptr<WindowExecutor>> Create(
      const sql::CompiledQuery& query, WindowMode mode,
      PlanBindings static_bindings, bool specialize = true);

 protected:
  std::atomic<int64_t> late_dropped_{0};
};

}  // namespace datacell

#endif  // DATACELL_CORE_WINDOW_H_
