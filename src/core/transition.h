#ifndef DATACELL_CORE_TRANSITION_H_
#define DATACELL_CORE_TRANSITION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/metrics_registry.h"
#include "common/result.h"

namespace datacell {

/// Kind of Petri-net transition a runtime component plays (§2.4).
enum class TransitionKind { kReceptor, kFactory, kEmitter };

const char* TransitionKindToString(TransitionKind k);

/// A schedulable unit of the DataCell dataflow: receptors, factories and
/// emitters all implement this interface. The scheduler continuously
/// re-evaluates `Ready()` and calls `Fire()` on enabled transitions.
///
/// Implementations must make Fire() safe to call from the scheduler thread
/// while producers append to the input baskets from other threads (basket
/// operations are individually atomic).
class Transition {
 public:
  Transition(std::string name, TransitionKind kind, int priority = 0)
      : name_(std::move(name)), kind_(kind), priority_(priority) {}
  virtual ~Transition() = default;

  Transition(const Transition&) = delete;
  Transition& operator=(const Transition&) = delete;

  const std::string& name() const { return name_; }
  TransitionKind kind() const { return kind_; }
  /// Larger fires first under the priority policy.
  int priority() const { return priority_; }
  void set_priority(int p) { priority_ = p; }

  /// Firing condition: input available (≥ threshold tuples in every input
  /// basket, per §2.4).
  virtual bool Ready() const = 0;

  /// Performs one unit of work; returns the number of tuples processed.
  /// Firing an un-Ready transition is allowed and returns 0.
  virtual Result<int64_t> Fire() = 0;

  /// Work waiting at this transition's inputs (tuples/lines), used by the
  /// adaptive scheduling policy (§3.2) to order firings by pressure.
  /// Default: 1 when Ready, else 0.
  virtual int64_t Backlog() const { return Ready() ? 1 : 0; }

  // --- parallel scheduling support ---------------------------------------
  /// Claims the transition for firing; at most one scheduler worker may run
  /// `Fire()` at a time (a factory's window state is single-writer). Returns
  /// false when another worker holds it.
  bool TryClaim() {
    bool expected = false;
    return in_flight_.compare_exchange_strong(expected, true,
                                              std::memory_order_acquire);
  }
  void Release() { in_flight_.store(false, std::memory_order_release); }

  // --- statistics -------------------------------------------------------
  // One set of counts per transition: the fire-latency histogram's count
  // and sum are the run count and busy time. The engine's metrics snapshot
  // reads them from here (core/engine_metrics.h).
  int64_t runs() const {
    return static_cast<int64_t>(fire_latency_us_.count());
  }
  int64_t tuples_processed() const {
    return tuples_.load(std::memory_order_relaxed);
  }
  int64_t busy_time_us() const { return fire_latency_us_.sum(); }
  /// Wall time of each productive Fire(), in µs.
  const Histogram& fire_latency_us() const { return fire_latency_us_; }

 protected:
  void RecordRun(int64_t tuples, int64_t elapsed_us) {
    tuples_.fetch_add(tuples, std::memory_order_relaxed);
    fire_latency_us_.Observe(elapsed_us);
  }

 private:
  std::string name_;
  TransitionKind kind_;
  int priority_;
  std::atomic<bool> in_flight_{false};
  std::atomic<int64_t> tuples_{0};
  Histogram fire_latency_us_;
};

using TransitionPtr = std::shared_ptr<Transition>;

}  // namespace datacell

#endif  // DATACELL_CORE_TRANSITION_H_
