#include "core/basket.h"

#include "common/check.h"
#include "common/string_util.h"

namespace datacell {

Basket::Basket(TablePtr table) : table_(std::move(table)) {
  DC_CHECK(table_ != nullptr);
  DC_CHECK(HasTsColumn(table_->schema()));
  const Schema& full = table_->schema();
  std::vector<Field> user_fields(full.fields().begin(),
                                 full.fields().end() - 1);
  user_schema_ = Schema(std::move(user_fields));
}

bool Basket::HasTsColumn(const Schema& schema) {
  if (schema.num_fields() == 0) return false;
  const Field& last = schema.field(schema.num_fields() - 1);
  return EqualsIgnoreCase(last.name, kTsColumnName) &&
         last.type == DataType::kTimestamp;
}

TablePtr Basket::MakeBasketTable(const std::string& name,
                                 const Schema& user_schema) {
  Schema full = user_schema;
  full.AddField(Field{kTsColumnName, DataType::kTimestamp});
  return std::make_shared<Table>(name, full);
}

void Basket::SetWakeCallback(std::function<void()> cb) {
  std::lock_guard<std::mutex> lock(mu_);
  DC_LOCK_ORDER(&mu_, "basket", name());
  wake_cb_ = cb ? std::make_shared<const std::function<void()>>(std::move(cb))
               : nullptr;
}

std::unique_lock<std::mutex> Basket::LockTracked() const {
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  if (lock.owns_lock()) return lock;
  Timestamp t0 = trace_clock_->Now();
  lock.lock();
  Timestamp waited = trace_clock_->Now() - t0;
  // The ring's mutex is a leaf lock (TraceRing never calls back out), so
  // recording under mu_ cannot deadlock.
  trace_ring_->RecordComplete("basket", name(), t0, waited, "lock_wait_us",
                              waited);
  return lock;
}

void Basket::NotifyAppend() {
  std::shared_ptr<const std::function<void()>> cb;
  {
    std::lock_guard<std::mutex> lock(mu_);
    DC_LOCK_ORDER(&mu_, "basket", name());
    cb = wake_cb_;
  }
  if (cb) (*cb)();
}

void Basket::ClampWatermarksLocked() {
  // Interior removal (DrainMatching on a basket that also has registered
  // readers) shrinks the oid range without advancing hseqbase; a watermark
  // past the new end would make the next ReadNewFor compute an out-of-range
  // slice. Clamp it back: the drained tuples are gone, so the reader has by
  // definition seen everything that remains below its old mark.
  Oid end = table_->hseqbase() + table_->num_rows();
  for (auto& [id, mark] : watermarks_) {
    if (mark > end) mark = end;
  }
}

#if DATACELL_DEBUG_CHECKS_ENABLED
void Basket::CheckInvariantsLocked() const {
  // Petri-net flow conservation for this place: every tuple that ever
  // entered is either still buffered, consumed by a factory/emitter, or
  // shed by the capacity bound. Nothing is lost, nothing counted twice.
  DC_DCHECK_EQ(total_appended_,
               total_consumed_ + total_shed_ +
                   static_cast<int64_t>(table_->num_rows()));
  // Shared-basket reader accounting: a watermark never points past the end
  // of the stream prefix present in the basket.
  Oid end = table_->hseqbase() + table_->num_rows();
  for (const auto& [id, mark] : watermarks_) {
    (void)id;
    DC_DCHECK_LE(mark, end);
  }
  // Derived counters are consistent with the current content.
  DC_DCHECK_GE(total_appended_, 0);
  DC_DCHECK_GE(total_consumed_, 0);
  DC_DCHECK_GE(total_shed_, 0);
  DC_DCHECK_GE(size_high_water_, table_->num_rows());
}

void Basket::TestOnlyCorruptAccounting(int64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  total_appended_ += delta;
  CheckInvariantsLocked();
}

void Basket::TestOnlyCorruptWatermark(size_t reader_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = watermarks_.find(reader_id);
  DC_CHECK(it != watermarks_.end());
  it->second = table_->hseqbase() + table_->num_rows() + 1;
  CheckInvariantsLocked();
}
#endif  // DATACELL_DEBUG_CHECKS_ENABLED

template <typename ColumnAt>
Status Basket::AppendCore(size_t num_cols, size_t num_rows,
                          ColumnAt column_at, std::optional<Timestamp> ts,
                          bool steal) {
  const Schema& full = table_->schema();
  const size_t user_cols = full.num_fields() - 1;
  const size_t expected = ts.has_value() ? user_cols : user_cols + 1;
  if (num_cols != expected) {
    return Status::InvalidArgument(
        "append of " + std::to_string(num_cols) + " columns to basket '" +
        name() + "', which takes " + std::to_string(expected) +
        (ts.has_value() ? " (ts is stamped on)" : " (the last one ts)"));
  }
  for (size_t c = 0; c < num_cols; ++c) {
    DataType type = column_at(c).type();
    if (type != full.field(c).type) {
      return Status::TypeError("append to basket '" + name() + "': column '" +
                               full.field(c).name + "' is " +
                               DataTypeToString(full.field(c).type) +
                               ", source column is " + DataTypeToString(type));
    }
  }
  if (num_rows == 0) return Status::OK();
  {
    std::unique_lock<std::mutex> lock = LockTraced();
    DC_LOCK_ORDER(&mu_, "basket", name());
    for (size_t c = 0; c < num_cols; ++c) {
      Bat& src = column_at(c);
      DC_DCHECK_EQ(src.size(), num_rows);
      if (steal) {
        table_->column(c)->TakeContentFrom(src);
      } else {
        table_->column(c)->AppendBat(src);
      }
    }
    if (ts.has_value()) {
      table_->column(user_cols)->AppendConstantInt64(*ts, num_rows);
    }
    total_appended_ += static_cast<int64_t>(num_rows);
    ShedLocked(num_rows);
    NoteOccupancyLocked();
    CheckInvariantsLocked();
  }
  NotifyAppend();
  return Status::OK();
}

Status Basket::Append(const Row& values, Timestamp ts) {
  return AppendBatch({values}, ts);
}

Status Basket::AppendBatch(const std::vector<Row>& rows, Timestamp ts) {
  ColumnBatch batch(user_schema_);
  DC_RETURN_NOT_OK(batch.AppendRows(rows));
  return AppendColumns(std::move(batch), ts);
}

Status Basket::AppendColumns(ColumnBatch&& batch, Timestamp ts) {
  return AppendCore(
      batch.num_columns(), batch.num_rows(),
      [&batch](size_t c) -> Bat& { return batch.column(c); }, ts,
      /*steal=*/true);
}

Status Basket::AppendColumnsCopy(const ColumnBatch& batch, Timestamp ts) {
  // steal=false never mutates the source; the const_cast only lets the
  // copying and stealing appends share one core.
  return AppendCore(
      batch.num_columns(), batch.num_rows(),
      [&batch](size_t c) -> Bat& {
        return const_cast<Bat&>(batch.column(c));
      },
      ts, /*steal=*/false);
}

Status Basket::AppendTable(const Table& rows, std::optional<Timestamp> ts) {
  return AppendCore(
      rows.num_columns(), rows.num_rows(),
      [&rows](size_t c) -> Bat& { return *rows.column(c); }, ts,
      /*steal=*/false);
}

Status Basket::AppendTableMove(Table&& rows, std::optional<Timestamp> ts) {
  return AppendCore(
      rows.num_columns(), rows.num_rows(),
      [&rows](size_t c) -> Bat& { return *rows.column(c); }, ts,
      /*steal=*/true);
}

void Basket::SetCapacity(size_t max_tuples, DropPolicy policy) {
  std::lock_guard<std::mutex> lock(mu_);
  DC_LOCK_ORDER(&mu_, "basket", name());
  capacity_ = max_tuples;
  drop_policy_ = policy;
  ShedLocked(0);
  CheckInvariantsLocked();
}

size_t Basket::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  DC_LOCK_ORDER(&mu_, "basket", name());
  return capacity_;
}

int64_t Basket::total_shed() const {
  std::lock_guard<std::mutex> lock(mu_);
  DC_LOCK_ORDER(&mu_, "basket", name());
  return total_shed_;
}

void Basket::ShedLocked(size_t appended) {
  if (capacity_ == 0) return;
  size_t n = table_->num_rows();
  if (n <= capacity_) return;
  size_t excess = n - capacity_;
  if (drop_policy_ == DropPolicy::kDropOldest) {
    table_->RemovePrefix(excess);
  } else {
    // Refuse the most recent arrivals, but never more than this call added.
    size_t drop_new = std::min(excess, appended);
    if (drop_new > 0) {
      std::vector<size_t> suffix;
      suffix.reserve(drop_new);
      for (size_t i = n - drop_new; i < n; ++i) suffix.push_back(i);
      table_->RemovePositions(suffix);
      ClampWatermarksLocked();
    }
    // A shrunken capacity can leave old excess behind; shed it oldest-first.
    size_t still = table_->num_rows() > capacity_
                       ? table_->num_rows() - capacity_
                       : 0;
    if (still > 0) table_->RemovePrefix(still);
  }
  total_shed_ += static_cast<int64_t>(excess);
}

TablePtr Basket::DrainAll() {
  std::unique_lock<std::mutex> lock = LockTraced();
  DC_LOCK_ORDER(&mu_, "basket", name());
  // Steal, don't copy: a drain removes everything regardless of readers, so
  // swapping the buffers out is observably identical to clone-and-clear
  // (hseqbase advances the same way; watermarks stay <= end).
  auto out = std::make_shared<Table>(name(), table_->schema());
  table_->MoveContentInto(*out);
  total_consumed_ += static_cast<int64_t>(out->num_rows());
  CheckInvariantsLocked();
  return out;
}

void Basket::DrainAllInto(Table* out) {
  DC_CHECK(out != nullptr);
  DC_CHECK(out->empty());
  std::unique_lock<std::mutex> lock = LockTraced();
  DC_LOCK_ORDER(&mu_, "basket", name());
  table_->MoveContentInto(*out);
  total_consumed_ += static_cast<int64_t>(out->num_rows());
  CheckInvariantsLocked();
}

TablePtr Basket::DrainPositionsLocked(const std::vector<size_t>& positions) {
  TablePtr out = TablePtr(table_->Take(positions));
  table_->RemovePositions(positions);
  total_consumed_ += static_cast<int64_t>(positions.size());
  ClampWatermarksLocked();
  CheckInvariantsLocked();
  return out;
}

Result<TablePtr> Basket::DrainMatching(const Expr& predicate) {
  std::unique_lock<std::mutex> lock = LockTraced();
  DC_LOCK_ORDER(&mu_, "basket", name());
  DC_ASSIGN_OR_RETURN(std::vector<size_t> positions,
                      EvaluatePredicate(predicate, *table_));
  return DrainPositionsLocked(positions);
}

Result<TablePtr> Basket::DrainSplit(const Expr& predicate, Basket* passthrough) {
  DC_CHECK(passthrough != nullptr);
  TablePtr matching;
  TablePtr rest;
  {
    std::unique_lock<std::mutex> lock = LockTraced();
    DC_LOCK_ORDER(&mu_, "basket", name());
    DC_ASSIGN_OR_RETURN(std::vector<size_t> positions,
                        EvaluatePredicate(predicate, *table_));
    matching = TablePtr(table_->Take(positions));
    std::vector<size_t> complement =
        ComplementPositions(positions, table_->num_rows());
    rest = TablePtr(table_->Take(complement));
    total_consumed_ += static_cast<int64_t>(table_->num_rows());
    table_->Clear();
    CheckInvariantsLocked();
  }
  // Append outside our own lock: passthrough has its own mutex, and locking
  // two baskets at once invites deadlock (the lock-order checker enforces
  // that two "basket"-class locks are never held together).
  DC_RETURN_NOT_OK(passthrough->AppendTable(*rest, std::nullopt));
  return matching;
}

size_t Basket::RegisterReader() {
  std::lock_guard<std::mutex> lock(mu_);
  DC_LOCK_ORDER(&mu_, "basket", name());
  size_t id = next_reader_++;
  watermarks_[id] = table_->hseqbase() + table_->num_rows();
  return id;
}

void Basket::UnregisterReader(size_t reader_id) {
  std::lock_guard<std::mutex> lock(mu_);
  DC_LOCK_ORDER(&mu_, "basket", name());
  watermarks_.erase(reader_id);
}

size_t Basket::num_readers() const {
  std::lock_guard<std::mutex> lock(mu_);
  DC_LOCK_ORDER(&mu_, "basket", name());
  return watermarks_.size();
}

TablePtr Basket::ReadNewFor(size_t reader_id) {
  std::unique_lock<std::mutex> lock = LockTraced();
  DC_LOCK_ORDER(&mu_, "basket", name());
  auto it = watermarks_.find(reader_id);
  DC_CHECK(it != watermarks_.end());
  Oid base = table_->hseqbase();
  Oid end = base + table_->num_rows();
  Oid from = std::max(it->second, base);
  TablePtr out = TablePtr(table_->Slice(static_cast<size_t>(from - base),
                                        static_cast<size_t>(end - from)));
  it->second = end;
  CheckInvariantsLocked();
  return out;
}

Result<TablePtr> Basket::ReadNewMatching(size_t reader_id,
                                         const Expr& predicate) {
  std::unique_lock<std::mutex> lock = LockTraced();
  DC_LOCK_ORDER(&mu_, "basket", name());
  auto it = watermarks_.find(reader_id);
  DC_CHECK(it != watermarks_.end());
  Oid base = table_->hseqbase();
  Oid end = base + table_->num_rows();
  Oid from = std::max(it->second, base);
  it->second = end;
  DC_ASSIGN_OR_RETURN(std::vector<size_t> positions,
                      EvaluatePredicate(predicate, *table_));
  // Keep only positions past the watermark.
  size_t first = static_cast<size_t>(from - base);
  std::vector<size_t> unseen;
  unseen.reserve(positions.size());
  for (size_t p : positions) {
    if (p >= first) unseen.push_back(p);
  }
  CheckInvariantsLocked();
  return TablePtr(table_->Take(unseen));
}

TablePtr Basket::DrainNewFor(size_t reader_id) {
  std::unique_lock<std::mutex> lock = LockTraced();
  DC_LOCK_ORDER(&mu_, "basket", name());
  auto it = watermarks_.find(reader_id);
  DC_CHECK(it != watermarks_.end());
  Oid base = table_->hseqbase();
  Oid end = base + table_->num_rows();
  Oid from = std::max(it->second, base);
  if (watermarks_.size() == 1 && from <= base) {
    // Single-reader fast path: this reader has seen nothing still buffered
    // and nobody else is registered, so everything present is both unseen
    // and immediately trimmable — steal the buffers whole.
    auto out = std::make_shared<Table>(name(), table_->schema());
    table_->MoveContentInto(*out);
    it->second = end;
    total_consumed_ += static_cast<int64_t>(out->num_rows());
    CheckInvariantsLocked();
    return out;
  }
  // General path: the fused equivalent of ReadNewFor + TrimConsumed — one
  // lock acquisition, one snapshot of the unseen slice, then drop whatever
  // prefix every reader (including this one, post-advance) has consumed.
  TablePtr out = TablePtr(table_->Slice(static_cast<size_t>(from - base),
                                        static_cast<size_t>(end - from)));
  it->second = end;
  Oid min_mark = watermarks_.begin()->second;
  for (const auto& [id, mark] : watermarks_) {
    if (mark < min_mark) min_mark = mark;
  }
  if (min_mark > base) {
    size_t n =
        std::min(static_cast<size_t>(min_mark - base), table_->num_rows());
    table_->RemovePrefix(n);
    total_consumed_ += static_cast<int64_t>(n);
  }
  CheckInvariantsLocked();
  return out;
}

size_t Basket::TrimConsumed() {
  std::unique_lock<std::mutex> lock = LockTraced();
  DC_LOCK_ORDER(&mu_, "basket", name());
  if (watermarks_.empty()) return 0;
  Oid min_mark = watermarks_.begin()->second;
  for (const auto& [id, mark] : watermarks_) {
    if (mark < min_mark) min_mark = mark;
  }
  Oid base = table_->hseqbase();
  if (min_mark <= base) return 0;
  size_t n = std::min(static_cast<size_t>(min_mark - base), table_->num_rows());
  table_->RemovePrefix(n);
  total_consumed_ += static_cast<int64_t>(n);
  CheckInvariantsLocked();
  return n;
}

TablePtr Basket::PeekSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  DC_LOCK_ORDER(&mu_, "basket", name());
  return TablePtr(table_->Clone());
}

size_t Basket::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  DC_LOCK_ORDER(&mu_, "basket", name());
  return table_->num_rows();
}

size_t Basket::UnseenCount(size_t reader_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  DC_LOCK_ORDER(&mu_, "basket", name());
  auto it = watermarks_.find(reader_id);
  DC_CHECK(it != watermarks_.end());
  Oid end = table_->hseqbase() + table_->num_rows();
  return it->second >= end ? 0 : static_cast<size_t>(end - it->second);
}

std::optional<Timestamp> Basket::OldestTs() const {
  std::lock_guard<std::mutex> lock(mu_);
  DC_LOCK_ORDER(&mu_, "basket", name());
  if (table_->num_rows() == 0) return std::nullopt;
  const Bat& ts = *table_->column(table_->num_columns() - 1);
  Timestamp best = ts.Int64At(0);
  for (size_t i = 1; i < ts.size(); ++i) {
    best = std::min(best, ts.Int64At(i));
  }
  return best;
}

std::optional<Timestamp> Basket::NewestTs() const {
  std::lock_guard<std::mutex> lock(mu_);
  DC_LOCK_ORDER(&mu_, "basket", name());
  if (table_->num_rows() == 0) return std::nullopt;
  const Bat& ts = *table_->column(table_->num_columns() - 1);
  Timestamp best = ts.Int64At(0);
  for (size_t i = 1; i < ts.size(); ++i) {
    best = std::max(best, ts.Int64At(i));
  }
  return best;
}

int64_t Basket::total_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  DC_LOCK_ORDER(&mu_, "basket", name());
  return total_appended_;
}

int64_t Basket::total_consumed() const {
  std::lock_guard<std::mutex> lock(mu_);
  DC_LOCK_ORDER(&mu_, "basket", name());
  return total_consumed_;
}

size_t Basket::memory_usage() const {
  std::lock_guard<std::mutex> lock(mu_);
  DC_LOCK_ORDER(&mu_, "basket", name());
  return table_->MemoryUsage();
}

size_t Basket::size_high_water() const {
  std::lock_guard<std::mutex> lock(mu_);
  DC_LOCK_ORDER(&mu_, "basket", name());
  return size_high_water_;
}

}  // namespace datacell
