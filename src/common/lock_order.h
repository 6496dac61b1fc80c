#ifndef DATACELL_COMMON_LOCK_ORDER_H_
#define DATACELL_COMMON_LOCK_ORDER_H_

#include <cstddef>
#include <string>

#include "common/check.h"

/// Debug-build lock-order checker: a dynamic detector for *potential*
/// deadlocks. Every annotated mutex belongs to a named lock class ("basket",
/// "scheduler_wake", "channel", ...). Each thread keeps a stack of the
/// annotated locks it currently holds; acquiring lock class B while holding
/// class A records the directed edge A -> B in a global acquisition-order
/// graph. The first acquisition that would close a cycle in that graph — or
/// that nests two locks of the same class, which the engine's lock hierarchy
/// forbids outright (e.g. two baskets are never held at once; see
/// Basket::DrainSplit) — aborts the process, printing BOTH witnesses: the
/// held-lock stack of the offending thread and the recorded stack that
/// established each conflicting edge. A potential deadlock is thus caught on
/// the first inverted acquisition, even if the interleaving that would
/// actually deadlock never occurs in the run.
///
/// The canonical acquisition order (documented in docs/ARCHITECTURE.md):
///
///   scheduler_transitions < channel < basket < trace_ring
///     (Scheduler::Step holds the transition table while polling
///     Backlog()/Ready(), which lock channels and baskets.)
///   wake_hub < scheduler_wake (Engine::WakeHub::Notify forwards to
///     Scheduler::NotifyWork under the hub lock)
///   scheduler_wake, scheduler_error: leaf locks
///
/// Wake callbacks (Basket/Channel -> Scheduler::NotifyWork) are invoked
/// *outside* the producer's lock precisely so no basket/channel -> scheduler
/// edge exists; the checker verifies that discipline on every run.
///
/// Everything here compiles away under -DDATACELL_DEBUG_CHECKS=OFF: the
/// DC_LOCK_ORDER macro expands to nothing, no thread-local state exists and
/// release binaries carry zero tracking overhead.

#if DATACELL_DEBUG_CHECKS_ENABLED

namespace datacell {
namespace lockorder {

/// Registers acquisition of `lock` (class `cls`, instance label `instance`)
/// by the calling thread. Aborts on a same-class nesting or on an edge that
/// closes a cycle in the global order graph.
void NoteAcquire(const void* lock, const char* cls, const std::string& instance);
/// Pops `lock` from the calling thread's held stack (out-of-order release is
/// allowed, matching std::unique_lock semantics).
void NoteRelease(const void* lock);

/// Number of distinct order edges recorded so far (introspection/tests).
size_t EdgeCount();
/// Clears the global graph and forgets recorded witnesses. Test-only: the
/// caller must guarantee no annotated lock is held by any thread.
void ResetForTest();

}  // namespace lockorder

/// RAII annotation: declare immediately after acquiring the lock, in the same
/// scope, so the note's lifetime brackets the critical section.
class LockOrderScope {
 public:
  LockOrderScope(const void* lock, const char* cls, const std::string& instance)
      : lock_(lock) {
    lockorder::NoteAcquire(lock, cls, instance);
  }
  ~LockOrderScope() { lockorder::NoteRelease(lock_); }

  LockOrderScope(const LockOrderScope&) = delete;
  LockOrderScope& operator=(const LockOrderScope&) = delete;

 private:
  const void* lock_;
};

}  // namespace datacell

#define DC_LOCK_ORDER_CAT2(a, b) a##b
#define DC_LOCK_ORDER_CAT(a, b) DC_LOCK_ORDER_CAT2(a, b)
/// Annotates the enclosing scope as holding `lock_ptr` (class `cls`, instance
/// label `inst`). Place directly after the lock acquisition.
#define DC_LOCK_ORDER(lock_ptr, cls, inst)                            \
  ::datacell::LockOrderScope DC_LOCK_ORDER_CAT(_dc_lock_order_,       \
                                               __LINE__)((lock_ptr), \
                                                         (cls), (inst))

#else  // !DATACELL_DEBUG_CHECKS_ENABLED

#define DC_LOCK_ORDER(lock_ptr, cls, inst) \
  do {                                     \
  } while (0)

#endif  // DATACELL_DEBUG_CHECKS_ENABLED

#endif  // DATACELL_COMMON_LOCK_ORDER_H_
