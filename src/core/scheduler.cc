#include "core/scheduler.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "common/lock_order.h"

namespace datacell {

Scheduler::~Scheduler() { Stop(); }

void Scheduler::AddTransition(TransitionPtr t) {
  {
    std::lock_guard<std::mutex> lock(transitions_mu_);
    DC_LOCK_ORDER(&transitions_mu_, "scheduler_transitions", "scheduler");
    transitions_.push_back(std::move(t));
  }
  // The new transition may already be enabled; idle workers must see it.
  NotifyWork();
}

void Scheduler::NotifyWork() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    DC_LOCK_ORDER(&wake_mu_, "scheduler_wake", "scheduler");
    work_epoch_.fetch_add(1, std::memory_order_release);
  }
  wake_cv_.notify_all();
}

bool Scheduler::RemoveTransition(const Transition* t) {
  std::lock_guard<std::mutex> lock(transitions_mu_);
  DC_LOCK_ORDER(&transitions_mu_, "scheduler_transitions", "scheduler");
  for (auto it = transitions_.begin(); it != transitions_.end(); ++it) {
    if (it->get() == t) {
      transitions_.erase(it);
      return true;
    }
  }
  return false;
}

std::vector<TransitionPtr> Scheduler::TransitionsSnapshot() const {
  std::lock_guard<std::mutex> lock(transitions_mu_);
  DC_LOCK_ORDER(&transitions_mu_, "scheduler_transitions", "scheduler");
  return transitions_;
}

std::vector<size_t> Scheduler::FiringOrder() const {
  std::vector<size_t> order(transitions_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (policy_ == SchedulingPolicy::kPriority) {
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return transitions_[a]->priority() > transitions_[b]->priority();
    });
  } else if (policy_ == SchedulingPolicy::kAdaptive) {
    // Re-evaluated every sweep: the ordering follows the workload.
    std::vector<int64_t> backlog(transitions_.size());
    for (size_t i = 0; i < transitions_.size(); ++i) {
      backlog[i] = transitions_[i]->Backlog();
    }
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return backlog[a] > backlog[b];
    });
  } else {
    // Round-robin: rotate the starting point each sweep.
    if (!order.empty()) {
      std::rotate(order.begin(),
                  order.begin() +
                      static_cast<ptrdiff_t>(rr_offset_ % order.size()),
                  order.end());
    }
  }
  return order;
}

int Scheduler::FireSweep(const std::vector<TransitionPtr>& snapshot,
                         const std::vector<size_t>& order) {
  // kTraceCompiled is constexpr false under -DDATACELL_TRACE=OFF, so the
  // tracing branches below (including the clock reads) fold away entirely.
  TraceRing* ring = kTraceCompiled ? trace_ring_ : nullptr;
  const Clock* tclock = trace_clock_;
  if (tclock == nullptr) ring = nullptr;
  Timestamp sweep_start = ring != nullptr ? tclock->Now() : 0;
  int fired = 0;
  for (size_t idx : order) {
    Transition& t = *snapshot[idx];
    if (!t.Ready()) continue;
    // A transition must not fire concurrently with itself (factory window
    // state is single-writer); workers skip claimed transitions.
    if (!t.TryClaim()) continue;
    Timestamp fire_start = ring != nullptr ? tclock->Now() : 0;
    Result<int64_t> r = t.Fire();
    t.Release();
    if (!r.ok()) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(error_mu_);
        DC_LOCK_ORDER(&error_mu_, "scheduler_error", "scheduler");
        last_error_ = r.status();
      }
      DC_LOG(Error) << "transition '" << t.name()
                    << "' failed: " << r.status().ToString();
      if (ring != nullptr) {
        ring->RecordInstant("scheduler", t.name(), tclock->Now(), "error", 1);
      }
      continue;
    }
    if (*r > 0) {
      ++fired;
      if (ring != nullptr) {
        ring->RecordComplete("transition", t.name(), fire_start,
                             tclock->Now() - fire_start, "tuples", *r);
      }
    }
  }
  sweeps_.fetch_add(1, std::memory_order_relaxed);
  firings_.fetch_add(fired, std::memory_order_relaxed);
  // Only productive sweeps enter the timeline; tracing every empty poll
  // would flood the ring with noise.
  if (ring != nullptr && fired > 0) {
    ring->RecordComplete("scheduler", "sweep", sweep_start,
                         tclock->Now() - sweep_start, "fired", fired);
  }
  return fired;
}

int Scheduler::Step() {
  std::vector<TransitionPtr> snapshot;
  std::vector<size_t> order;
  {
    std::lock_guard<std::mutex> lock(transitions_mu_);
    DC_LOCK_ORDER(&transitions_mu_, "scheduler_transitions", "scheduler");
    snapshot = transitions_;
    order = FiringOrder();
    ++rr_offset_;
  }
  return FireSweep(snapshot, order);
}

int64_t Scheduler::RunUntilQuiescent(int64_t max_sweeps) {
  int64_t total = 0;
  for (int64_t i = 0; i < max_sweeps; ++i) {
    int fired = Step();
    total += fired;
    if (fired == 0) break;
  }
  return total;
}

Status Scheduler::Start(size_t num_threads) {
  if (num_threads == 0) {
    return Status::InvalidArgument("need at least one scheduler thread");
  }
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) {
    return Status::FailedPrecondition("scheduler already running");
  }
  stop_requested_.store(false, std::memory_order_release);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { Loop(); });
  }
  return Status::OK();
}

void Scheduler::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    DC_LOCK_ORDER(&wake_mu_, "scheduler_wake", "scheduler");
    stop_requested_.store(true, std::memory_order_release);
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  running_.store(false, std::memory_order_release);
}

void Scheduler::Loop() {
  // The paper's infinite loop: continuously re-evaluate firing conditions.
  // When a sweep fires nothing, block on the wake signal instead of
  // sleep-polling: producers notify on append, so an idle scheduler costs
  // (almost) no CPU and a newly enabled transition fires immediately. The
  // fallback wait bounds the latency of readiness changes that have no
  // notifier (e.g. a wall-clock window boundary passing).
  const auto idle_fallback = std::chrono::microseconds(idle_fallback_us_);
  while (!stop_requested_.load(std::memory_order_acquire)) {
    // Snapshot before the sweep: anything appended after this point, even
    // mid-sweep, moves the epoch and defeats the wait below.
    uint64_t seen = work_epoch_.load(std::memory_order_acquire);
    int fired = Step();
    if (fired == 0) {
      idle_waits_.fetch_add(1, std::memory_order_relaxed);
      {
        std::unique_lock<std::mutex> lock(wake_mu_);
        DC_LOCK_ORDER(&wake_mu_, "scheduler_wake", "scheduler");
        wake_cv_.wait_for(lock, idle_fallback, [&] {
          return work_epoch_.load(std::memory_order_acquire) != seen ||
                 stop_requested_.load(std::memory_order_acquire);
        });
      }
      // Wake-reason accounting: a moved epoch means a producer notified;
      // otherwise the bounded fallback tick expired. An idle engine should
      // accumulate timeouts, a loaded one notifications.
      bool notified = work_epoch_.load(std::memory_order_acquire) != seen;
      if (notified) {
        wakes_notified_.fetch_add(1, std::memory_order_relaxed);
      } else {
        wakes_timeout_.fetch_add(1, std::memory_order_relaxed);
      }
      TraceRing* ring = kTraceCompiled ? trace_ring_ : nullptr;
      if (ring != nullptr && trace_clock_ != nullptr) {
        ring->RecordInstant("scheduler",
                            notified ? "wake_notified" : "wake_timeout",
                            trace_clock_->Now());
      }
    }
  }
}

Status Scheduler::last_error() const {
  std::lock_guard<std::mutex> lock(error_mu_);
  DC_LOCK_ORDER(&error_mu_, "scheduler_error", "scheduler");
  return last_error_;
}

}  // namespace datacell
