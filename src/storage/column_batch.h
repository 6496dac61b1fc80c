#ifndef DATACELL_STORAGE_COLUMN_BATCH_H_
#define DATACELL_STORAGE_COLUMN_BATCH_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/bat.h"
#include "storage/schema.h"

namespace datacell {

/// A typed, columnar staging batch: the SoA counterpart of `std::vector<Row>`
/// on the ingest path. Adapters (CSV receptors, generators, replayers) parse
/// stream tuples *directly into* the typed column buffers — no `Value`
/// boxing, no per-field heap traffic — and hand the whole batch to
/// `Basket::AppendColumns(ColumnBatch&&)`, which swaps the buffers in.
///
/// A moved-from batch is empty but keeps whatever buffer capacity the
/// receiving basket handed back in the swap, so a long-lived batch owned by a
/// receptor reaches a steady state where `Clear()` + refill touches the
/// allocator not at all (fixed-width columns; string columns still own their
/// character storage).
///
/// Columns follow the *user* schema of a stream — the implicit `ts` column is
/// stamped on by the basket, not carried here.
///
/// Not thread-safe; each adapter owns its batch.
class ColumnBatch {
 public:
  ColumnBatch() = default;
  explicit ColumnBatch(const Schema& schema) { Reset(schema); }

  ColumnBatch(const ColumnBatch&) = delete;
  ColumnBatch& operator=(const ColumnBatch&) = delete;
  ColumnBatch(ColumnBatch&&) = default;
  ColumnBatch& operator=(ColumnBatch&&) = default;

  /// Re-initialises for `schema`: drops all columns and builds fresh empty
  /// ones (capacity is not retained across a Reset — use Clear for that).
  void Reset(const Schema& schema);

  const Schema& schema() const { return schema_; }
  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const {
    return columns_.empty() ? 0 : columns_[0].size();
  }
  bool empty() const { return num_rows() == 0; }

  Bat& column(size_t i) { return columns_[i]; }
  const Bat& column(size_t i) const { return columns_[i]; }

  /// Drops all rows, keeping buffer capacity (vector::clear semantics).
  void Clear();
  /// Rolls every column back to `num_rows` rows — the per-row atomicity
  /// primitive for parsers that append column-by-column and hit an error
  /// mid-tuple. Capacity is kept.
  void TruncateTo(size_t num_rows);

  /// Validates `rows` against `schema`: arity, then every value's type (a
  /// boolean test per value; the detailed Status is built only on failure).
  static Status CheckRows(const Schema& schema, const std::vector<Row>& rows);
  /// The row APIs' builder: checks every row (CheckRows), then appends them
  /// all. On error nothing is appended, so a rejected batch leaves no
  /// partial prefix behind.
  Status AppendRows(const std::vector<Row>& rows);
  /// Appends a row already validated against the schema (the default
  /// generator transposition, the CSV fallback parser).
  void AppendRowUnchecked(const Row& row);

  /// True when every column of `other_schema` matches this batch's column
  /// types positionally (names are not compared; baskets bind by position).
  bool MatchesSchema(const Schema& other_schema) const;

  size_t MemoryUsage() const;

 private:
  Schema schema_;
  std::vector<Bat> columns_;
};

}  // namespace datacell

#endif  // DATACELL_STORAGE_COLUMN_BATCH_H_
