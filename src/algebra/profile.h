#ifndef DATACELL_ALGEBRA_PROFILE_H_
#define DATACELL_ALGEBRA_PROFILE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

namespace datacell {

class PlanNode;

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
/// specialized-pipeline stage, or one per interpreter plan node) and never
/// changes shape afterwards; only the atomic cells mutate. Writers are the
/// factory's exactly-once Fire(); readers (the shell's \profile, the metrics
/// refresh, the HTTP /queries endpoint) may run concurrently on other
/// threads, which relaxed atomics over an immutable structure make safe.
///
/// Execution code sees only a nullable pointer in the ExecContext (plan.h),
/// so a disabled profiler costs one pointer test per firing.
class PipelineProfile {
 public:
  static constexpr size_t kNoStep = static_cast<size_t>(-1);
  /// Marks rows_in as "not measured" — the renderer derives it from the
  /// child steps' output rows instead (interpreter nodes learn their input
  /// only through their children).
  static constexpr int64_t kRowsUnknown = -1;

  /// Registers a step; `depth` controls tree indentation in Render().
  /// Returns the step's index. Call only while building (single-threaded).
  size_t AddStep(std::string label, int depth);
  /// Associates a plan node with a step so the interpreter can find its slot
  /// during execution. Build-time only.
  void MapNode(const PlanNode* node, size_t step);
  size_t StepForNode(const PlanNode* node) const;

  /// Accumulates one execution of `step`. Thread-safe (relaxed atomics).
  void RecordStep(size_t step, int64_t rows_in, int64_t rows_out,
                  int64_t time_ns);
  /// Accumulates one whole factory firing (the denominator of "% of fire
  /// time" in Render()).
  void RecordFire(int64_t time_ns);

  /// Builds the interpreter profile: one step per plan node, preorder, with
  /// node mappings for StepForNode.
  static void FromPlan(const PlanNode& root, PipelineProfile* out);

  struct StepSnapshot {
    std::string label;
    int depth = 0;
    int64_t calls = 0;
    int64_t rows_in = 0;   // kRowsUnknown when the step never measured it
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
  /// calls, rows in/out, total time and share of the fire time. Derived
  /// rows_in (kRowsUnknown steps) come from the immediate children's output.
  std::string Render() const;

 private:
  struct Step {
    std::string label;
    int depth = 0;
    std::atomic<int64_t> calls{0};
    std::atomic<int64_t> rows_in{0};
    std::atomic<int64_t> rows_out{0};
    std::atomic<int64_t> time_ns{0};
    std::atomic<bool> rows_in_measured{false};
  };

  // deque: stable addresses across AddStep (atomics are not movable).
  std::deque<Step> steps_;
  std::unordered_map<const PlanNode*, size_t> node_steps_;
  std::atomic<int64_t> fires_{0};
  std::atomic<int64_t> fire_time_ns_{0};
};

}  // namespace datacell

#endif  // DATACELL_ALGEBRA_PROFILE_H_
