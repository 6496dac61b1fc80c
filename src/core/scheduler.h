#ifndef DATACELL_CORE_SCHEDULER_H_
#define DATACELL_CORE_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/trace.h"
#include "core/transition.h"

namespace datacell {

/// Order in which ready transitions are fired within a sweep.
enum class SchedulingPolicy {
  /// Fair: the sweep's starting transition rotates, so no transition
  /// starves even under constant load.
  kRoundRobin,
  /// Higher `Transition::priority()` first (stable for equal priorities) —
  /// the hook for low-latency queries (§3.2).
  kPriority,
  /// Adapts to the workload each sweep: transitions with the largest input
  /// backlog fire first, so pressure drains where it builds (§3.2's
  /// dynamically adapting scheduling policy).
  kAdaptive,
};

/// The DataCell scheduler (§2.4): runs an infinite loop, re-evaluating every
/// transition's firing condition and firing the enabled ones. Supports a
/// deterministic single-stepped mode (`Step`) used by tests and a threaded
/// mode (`Start`/`Stop`) matching the paper's multi-threaded architecture.
class Scheduler {
 public:
  explicit Scheduler(SchedulingPolicy policy = SchedulingPolicy::kRoundRobin)
      : policy_(policy) {}
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  void AddTransition(TransitionPtr t);
  /// Detaches a transition from scheduling (by identity). It stops firing
  /// after the current sweep; the object itself stays alive through any
  /// in-flight snapshot. Returns false when not found.
  bool RemoveTransition(const Transition* t);
  const std::vector<TransitionPtr>& transitions() const { return transitions_; }
  /// Copy of the transition list, safe while another thread adds or
  /// removes transitions (metrics snapshots use it).
  std::vector<TransitionPtr> TransitionsSnapshot() const;

  /// One sweep: fires every currently-ready transition once, in policy
  /// order. Returns the number of transitions fired. Transition errors are
  /// recorded (see `last_error`) and do not abort the sweep — a failing
  /// query must not take the engine down.
  int Step();

  /// Sweeps until quiescent (no transition ready) or `max_sweeps` reached.
  /// Returns total firings.
  int64_t RunUntilQuiescent(int64_t max_sweeps = 1000000);

  /// Spawns `num_threads` scheduler workers running the infinite loop (the
  /// paper's multi-threaded architecture: transitions fire concurrently,
  /// serialised per transition by a claim flag and per basket by the basket
  /// monitors). 1 thread reproduces the classic single-loop scheduler.
  Status Start(size_t num_threads = 1);
  /// Stops and joins all scheduler threads. Idempotent.
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Wakes idle scheduler workers: a Petri-net input place gained tokens
  /// (basket append, channel push, transition added). Baskets created by the
  /// engine call this from their append paths, so transitions fire the
  /// moment their inputs become available instead of on the next poll tick.
  /// Cheap and safe to call from any thread, including under a basket lock's
  /// shadow (it takes only the scheduler's wake mutex).
  void NotifyWork();

  SchedulingPolicy policy() const { return policy_; }
  void set_policy(SchedulingPolicy p) { policy_ = p; }

  int64_t sweeps() const { return sweeps_.load(std::memory_order_relaxed); }
  int64_t total_firings() const {
    return firings_.load(std::memory_order_relaxed);
  }
  int64_t error_count() const {
    return errors_.load(std::memory_order_relaxed);
  }
  /// Times a worker found nothing to fire and blocked on the wake signal
  /// (idle behaviour diagnostics: an idle scheduler should accumulate waits,
  /// not sweeps).
  int64_t idle_waits() const {
    return idle_waits_.load(std::memory_order_relaxed);
  }
  /// Why idle waits ended: a NotifyWork signal (tokens arrived) vs the
  /// bounded fallback tick (wall-clock window boundaries and other
  /// notifier-less readiness changes). Together with idle_waits these are
  /// the scheduler's wake-reason accounting.
  int64_t wakes_notified() const {
    return wakes_notified_.load(std::memory_order_relaxed);
  }
  int64_t wakes_timeout() const {
    return wakes_timeout_.load(std::memory_order_relaxed);
  }
  Status last_error() const;

  /// Enables event tracing: sweeps, per-transition firings and idle wakes
  /// are recorded into `ring`, timestamped by `clock`. Call before Start
  /// (or between stepped sweeps); pass nullptrs to detach. The engine owns
  /// both objects and wires them when EngineOptions::trace_capacity > 0.
  void SetTrace(TraceRing* ring, const Clock* clock) {
    trace_ring_ = ring;
    trace_clock_ = clock;
  }

  /// Bounds the threaded workers' idle fallback wait: how long a worker
  /// sleeps with no wake notification before re-checking readiness changes
  /// that have no notifier (wall-clock windows, the monitor's tick). Call
  /// before Start. Small values poll faster; large values let tests freeze
  /// the scheduler between explicit wakes.
  void SetIdleFallbackUs(int64_t us) { idle_fallback_us_ = us; }
  int64_t idle_fallback_us() const { return idle_fallback_us_; }

  size_t num_threads() const { return threads_.size(); }

 private:
  void Loop();
  std::vector<size_t> FiringOrder() const;
  /// One pass over a transition snapshot claiming + firing; shared by the
  /// stepped and threaded modes.
  int FireSweep(const std::vector<TransitionPtr>& snapshot,
                const std::vector<size_t>& order);

  SchedulingPolicy policy_;
  std::vector<TransitionPtr> transitions_;
  mutable std::mutex transitions_mu_;  // guards vector shape, not elements

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::vector<std::thread> threads_;

  // Event-driven idle handling: NotifyWork bumps the epoch (under wake_mu_,
  // so a worker cannot slip between its epoch snapshot check and the wait)
  // and wakes the workers. A worker whose sweep fired nothing blocks until
  // the epoch moves past the snapshot it took *before* that sweep — tokens
  // that arrived mid-sweep are never missed. A bounded fallback wait covers
  // readiness changes with no notifier (wall-clock windows, direct channel
  // writes).
  // Written during wiring (before Start), read by the worker loops.
  int64_t idle_fallback_us_ = 2000;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<uint64_t> work_epoch_{0};
  std::atomic<int64_t> idle_waits_{0};
  std::atomic<int64_t> wakes_notified_{0};
  std::atomic<int64_t> wakes_timeout_{0};

  // Tracing (null = off). Set during wiring, before workers run.
  TraceRing* trace_ring_ = nullptr;
  const Clock* trace_clock_ = nullptr;

  std::atomic<int64_t> sweeps_{0};
  std::atomic<int64_t> firings_{0};
  std::atomic<int64_t> errors_{0};
  mutable std::mutex error_mu_;
  Status last_error_;
  size_t rr_offset_ = 0;
};

}  // namespace datacell

#endif  // DATACELL_CORE_SCHEDULER_H_
