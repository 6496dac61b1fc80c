#ifndef DATACELL_CORE_BASKET_H_
#define DATACELL_CORE_BASKET_H_

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "algebra/expression.h"
#include "algebra/operators.h"
#include "common/clock.h"
#include "common/lock_order.h"
#include "common/result.h"
#include "common/trace.h"
#include "storage/column_batch.h"
#include "storage/table.h"

namespace datacell {

/// The key data structure of the DataCell (§2.2): a portion of a stream held
/// as a temporary main-memory table. Receptors append incoming tuples;
/// factories consume them; a tuple is removed once every relevant reader has
/// seen it.
///
/// The last column of every basket is the implicit `ts` timestamp column
/// recording when each tuple entered the system.
///
/// Thread-safety: monitor-style — every public operation is atomic under the
/// internal mutex, which realises the paper's rule that "one factory,
/// receptor or emitter at a time updates a given basket". Composite
/// operations used by factories (drain-matching, read-new-and-advance) are
/// single calls, so Algorithm 1's lock/unlock bracket maps to one method.
///
/// Load shedding (§1's "possible load shedding requirements"): an optional
/// capacity bounds the basket; when producers outrun consumers, tuples are
/// shed by policy and counted, so the engine degrades predictably instead
/// of growing without bound.
class Basket {
 public:
  enum class DropPolicy {
    /// Shed the oldest buffered tuples to admit new ones (freshness wins).
    kDropOldest,
    /// Refuse the newest arrivals while full (completeness of old data wins).
    kDropNewest,
  };
  /// `table` must already carry the trailing timestamp column.
  explicit Basket(TablePtr table);

  Basket(const Basket&) = delete;
  Basket& operator=(const Basket&) = delete;

  const std::string& name() const { return table_->name(); }
  /// Full schema including the trailing `ts` column.
  const Schema& schema() const { return table_->schema(); }
  /// Stream schema as declared by the user (without the trailing ts column);
  /// the schema a ColumnBatch for this basket is built from.
  const Schema& user_schema() const { return user_schema_; }

  // --- producer side ----------------------------------------------------
  // Every append forwards to AppendCore; a rejected append changes nothing.
  /// Appends one stream tuple (without ts); `ts` is stamped on.
  Status Append(const Row& values, Timestamp ts);
  /// Appends many tuples with the same arrival timestamp: a thin builder
  /// that validates every row into a ColumnBatch, then AppendColumns.
  Status AppendBatch(const std::vector<Row>& rows, Timestamp ts);
  /// Moves a typed columnar batch in, stamping every tuple with `ts`. When
  /// the basket is empty the buffers are swapped in (zero-copy) and `batch`
  /// is left holding the basket's previous (empty, capacitied) buffers —
  /// the producer refills them next round; otherwise a bulk column append.
  Status AppendColumns(ColumnBatch&& batch, Timestamp ts);
  /// Copying variant used when one batch fans out to several baskets;
  /// `batch` is left untouched.
  Status AppendColumnsCopy(const ColumnBatch& batch, Timestamp ts);
  /// Bulk-appends a table, copying its columns. With `ts`, `rows` holds the
  /// user columns and every tuple is stamped with `*ts` (query results
  /// entering an output basket); without, its trailing column is the
  /// tuples' own ts (inter-factory flow, partials carrying arrival times).
  Status AppendTable(const Table& rows, std::optional<Timestamp> ts);
  /// Zero-copy variant of AppendTable: steals `rows`'s column buffers (swap
  /// into an empty basket, bulk append otherwise); `rows` is left empty.
  /// Only safe when the caller exclusively owns the table and its columns.
  Status AppendTableMove(Table&& rows, std::optional<Timestamp> ts);

  // --- exclusive-consumer side (separate-baskets strategy) ----------------
  /// Removes and returns the full content. Zero-copy: the buffers are moved
  /// out by swap (Table::MoveContentInto) — a drain removes everything
  /// regardless of readers, so stealing is observably identical to the old
  /// clone-and-clear.
  TablePtr DrainAll();
  /// DrainAll into caller-owned scratch (`out` must be empty with this
  /// basket's full schema): the no-allocation drain — the basket inherits
  /// `out`'s old buffer capacity in the swap.
  void DrainAllInto(Table* out);
  /// Removes and returns the tuples satisfying `predicate` (a basket
  /// expression's consuming read, §2.6); non-matching tuples stay.
  Result<TablePtr> DrainMatching(const Expr& predicate);
  /// Removes and returns tuples, split by `predicate`: matching tuples are
  /// returned, non-matching are appended to `passthrough` (the chained
  /// disjoint-predicate strategy of §2.5).
  Result<TablePtr> DrainSplit(const Expr& predicate, Basket* passthrough);

  // --- shared-readers side (shared-baskets strategy) ----------------------
  /// Registers a reader; its watermark starts at the current end, i.e. a new
  /// reader only sees tuples that arrive after registration.
  size_t RegisterReader();
  /// Removes a reader. Without this, a retired query's stale watermark would
  /// hold back TrimConsumed forever and the basket would grow unboundedly.
  void UnregisterReader(size_t reader_id);
  size_t num_readers() const;
  /// Returns all tuples this reader has not yet seen and advances its
  /// watermark past them. Tuples stay in the basket for other readers.
  TablePtr ReadNewFor(size_t reader_id);
  /// Like ReadNewFor, but copies only the unseen tuples satisfying
  /// `predicate` — the shared-basket evaluation of a basket expression:
  /// one selective scan, one copy of the qualifying tuples, nothing removed.
  Result<TablePtr> ReadNewMatching(size_t reader_id, const Expr& predicate);
  /// Physically removes tuples every registered reader has consumed.
  /// Returns the number of tuples removed.
  size_t TrimConsumed();
  /// Fused ReadNewFor + TrimConsumed. Single-reader fast path: when
  /// `reader_id` is the only registered reader and its watermark is at (or
  /// below) the buffered prefix, everything present is unseen-by-everyone,
  /// so the buffers are *stolen* (swap, no copy) instead of sliced; the
  /// general multi-reader path slices then trims as before.
  TablePtr DrainNewFor(size_t reader_id);

  // --- inspection (non-consuming, "outside a basket expression", §2.6) ----
  /// Snapshot of the current content.
  TablePtr PeekSnapshot() const;
  size_t size() const;
  bool empty() const { return size() == 0; }
  /// Tuples not yet seen by `reader_id`.
  size_t UnseenCount(size_t reader_id) const;
  /// Oldest ts in the basket, or nullopt when empty.
  std::optional<Timestamp> OldestTs() const;
  /// Largest ts in the basket, or nullopt when empty.
  std::optional<Timestamp> NewestTs() const;

  /// Enables load shedding: the basket holds at most `max_tuples` (0 turns
  /// shedding off). Applies to all append paths.
  void SetCapacity(size_t max_tuples, DropPolicy policy);
  size_t capacity() const;
  /// Tuples shed so far due to the capacity bound.
  int64_t total_shed() const;

  /// Installs a callback invoked (outside the basket lock) after every
  /// append that added at least one tuple. The engine wires this to
  /// Scheduler::NotifyWork, realising the Petri-net edge from token arrival
  /// to transition wakeup: an idle scheduler blocks until a basket gains
  /// tuples instead of polling. Pass nullptr to detach (the engine does, on
  /// destruction, so retained baskets never call into a dead scheduler).
  void SetWakeCallback(std::function<void()> cb);

  int64_t total_appended() const;
  int64_t total_consumed() const;
  size_t memory_usage() const;
  /// Largest occupancy (tuples) ever reached — the backlog high-water mark,
  /// exported per basket by the engine's metrics snapshot.
  size_t size_high_water() const;

  /// Enables lock-wait tracing: when a producer or consumer blocks on this
  /// basket's monitor, the wait is recorded into `ring` (category "basket",
  /// named after the basket). Wire before concurrent use; pass nullptrs to
  /// detach. Uncontended operations stay on the plain fast path.
  void SetTrace(TraceRing* ring, const Clock* clock) {
    trace_ring_ = ring;
    trace_clock_ = clock;
  }

  /// Index of the ts column (always the last).
  size_t ts_column() const { return table_->num_columns() - 1; }

  /// Builds a basket table: `name` with `user_schema` plus the trailing ts
  /// column appended.
  static TablePtr MakeBasketTable(const std::string& name,
                                  const Schema& user_schema);
  /// True when `schema`'s last column is the implicit ts column.
  static bool HasTsColumn(const Schema& schema);

  /// Name of the implicit timestamp column.
  static constexpr const char* kTsColumnName = "ts";

#if DATACELL_DEBUG_CHECKS_ENABLED
  /// Test-only (debug-check builds): skews the flow-conservation counter by
  /// `delta` and re-checks the Petri-net invariants — the deliberate
  /// violation path for the invariant abort tests.
  void TestOnlyCorruptAccounting(int64_t delta);
  /// Test-only: forces reader `reader_id`'s watermark past the basket end,
  /// violating the watermark bound invariant.
  void TestOnlyCorruptWatermark(size_t reader_id);
#endif

 private:
  /// The one append core. The source has `num_cols` columns of `num_rows`
  /// rows each; `column_at(c)` returns column c as a `Bat&`. With `ts` the
  /// source holds the user columns and every tuple is stamped with `*ts`;
  /// without, its trailing column is the ts column. `steal` moves the
  /// source buffers in (TakeContentFrom) and leaves the source empty;
  /// otherwise they are copied and the source is not modified. Arity and
  /// types are checked once per column before the lock is taken (a
  /// basket's column types never change); an empty source is then a no-op.
  template <typename ColumnAt>
  Status AppendCore(size_t num_cols, size_t num_rows, ColumnAt column_at,
                    std::optional<Timestamp> ts, bool steal);
  TablePtr DrainPositionsLocked(const std::vector<size_t>& positions);
  /// Acquires mu_, recording the wait into the trace ring when the lock was
  /// contended (tracing wired and compiled in; otherwise a plain lock).
  /// Inline so the untraced fast path compiles to exactly the lock it
  /// replaced; kTraceCompiled folds the branch away under
  /// -DDATACELL_TRACE=OFF.
  std::unique_lock<std::mutex> LockTraced() const {
    if (!kTraceCompiled || trace_ring_ == nullptr || trace_clock_ == nullptr) {
      return std::unique_lock<std::mutex>(mu_);
    }
    return LockTracked();
  }
  /// Traced slow path of LockTraced: try-lock, time the wait on contention.
  std::unique_lock<std::mutex> LockTracked() const;
  /// Call after any append (holding mu_) to advance the high-water mark.
  void NoteOccupancyLocked() {
    size_high_water_ = std::max(size_high_water_, table_->num_rows());
  }
  /// Call after interior removal (holding mu_): pulls reader watermarks back
  /// inside the shrunken oid range so the next ReadNewFor cannot compute an
  /// out-of-range slice.
  void ClampWatermarksLocked();
#if DATACELL_DEBUG_CHECKS_ENABLED
  /// DC_DCHECK tier: re-verifies the Petri-net place invariants (flow
  /// conservation appended == consumed + shed + occupancy; watermark bounds)
  /// after every mutating operation. Compiled out in release builds.
  void CheckInvariantsLocked() const;
#else
  void CheckInvariantsLocked() const {}
#endif
  /// Applies the capacity bound after appends (locked). `appended` is how
  /// many tuples the current call added (bounds kDropNewest).
  void ShedLocked(size_t appended);
  /// Invokes the wake callback (if set) without holding the basket lock —
  /// the callback takes the scheduler's wake mutex, and nesting it inside
  /// `mu_` would order the two locks.
  void NotifyAppend();

  mutable std::mutex mu_;
  // Guarded by mu_, invoked outside it. Held by shared_ptr so NotifyAppend
  // takes a reference-count copy, not a std::function copy (which would heap
  // allocate for a callable that captures a shared_ptr).
  std::shared_ptr<const std::function<void()>> wake_cb_;
  TablePtr table_;
  Schema user_schema_;            // schema() minus the trailing ts column
  std::map<size_t, Oid> watermarks_;  // reader id -> first unseen oid
  size_t next_reader_ = 0;
  size_t capacity_ = 0;  // 0 = unbounded
  DropPolicy drop_policy_ = DropPolicy::kDropOldest;
  int64_t total_appended_ = 0;
  int64_t total_consumed_ = 0;
  int64_t total_shed_ = 0;
  size_t size_high_water_ = 0;
  // Tracing (null = off). Set at wiring time, before concurrent use.
  TraceRing* trace_ring_ = nullptr;
  const Clock* trace_clock_ = nullptr;
};

using BasketPtr = std::shared_ptr<Basket>;

}  // namespace datacell

#endif  // DATACELL_CORE_BASKET_H_
