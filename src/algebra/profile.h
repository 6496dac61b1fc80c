#ifndef DATACELL_ALGEBRA_PROFILE_H_
#define DATACELL_ALGEBRA_PROFILE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace datacell {

/// Nanosecond steady-clock reading for step timing. Only called on profiled
/// paths — the engine clock stays the single time source for stream
/// semantics; this one exists because per-step spans need sub-microsecond
/// resolution.
inline int64_t ProfileNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-step execution counters for one continuous query's pipeline — the
/// EXPLAIN-ANALYZE companion to the registration-time plan.
///
/// The step list is built once when the factory is created (one step per
/// node of each plan the factory runs, PlanRunner::RegisterProfileSteps)
/// and never changes shape afterwards; only the atomic cells mutate.
/// Writers are the factory's exactly-once Fire(); readers (the shell's
/// \profile, the metrics refresh, the HTTP /queries endpoint) may run
/// concurrently on other threads, which relaxed atomics over an immutable
/// structure make safe.
///
/// Execution code sees only a nullable pointer in the ExecContext (plan.h),
/// so a disabled profiler costs one pointer test per firing.
class PipelineProfile {
 public:
  static constexpr size_t kNoStep = static_cast<size_t>(-1);

  /// Registers a step; `depth` controls tree indentation in Render().
  /// Returns the step's index; consecutive calls return consecutive
  /// indices. Call only while building (single-threaded).
  size_t AddStep(std::string label, int depth);

  /// Accumulates one execution of `step`. Thread-safe (relaxed atomics).
  void RecordStep(size_t step, int64_t rows_in, int64_t rows_out,
                  int64_t time_ns);
  /// Accumulates one whole factory firing (the denominator of "% of fire
  /// time" in Render()).
  void RecordFire(int64_t time_ns);

  struct StepSnapshot {
    std::string label;
    int depth = 0;
    int64_t calls = 0;
    int64_t rows_in = 0;
    int64_t rows_out = 0;
    int64_t time_ns = 0;
  };
  struct Snapshot {
    int64_t fires = 0;
    int64_t fire_time_ns = 0;
    std::vector<StepSnapshot> steps;
  };
  Snapshot Snap() const;

  size_t num_steps() const { return steps_.size(); }
  int64_t fires() const { return fires_.load(std::memory_order_relaxed); }

  /// EXPLAIN-ANALYZE-style table: one row per step (indented by depth) with
  /// calls, rows in/out, total time and share of the fire time.
  std::string Render() const;

 private:
  struct Step {
    std::string label;
    int depth = 0;
    std::atomic<int64_t> calls{0};
    std::atomic<int64_t> rows_in{0};
    std::atomic<int64_t> rows_out{0};
    std::atomic<int64_t> time_ns{0};
  };

  // deque: stable addresses across AddStep (atomics are not movable).
  std::deque<Step> steps_;
  std::atomic<int64_t> fires_{0};
  std::atomic<int64_t> fire_time_ns_{0};
};

}  // namespace datacell

#endif  // DATACELL_ALGEBRA_PROFILE_H_
