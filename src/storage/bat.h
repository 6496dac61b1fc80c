#ifndef DATACELL_STORAGE_BAT_H_
#define DATACELL_STORAGE_BAT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "storage/types.h"

namespace datacell {

/// Binary Association Table: MonetDB's column representation.
///
/// A BAT is logically a set of (head, tail) pairs. The head is a *virtual*
/// dense oid sequence starting at `hseqbase()` — it is never materialised.
/// The tail is a typed value vector. For a relation of k attributes there are
/// k BATs whose positions are aligned: position i across all of them forms
/// relational tuple `hseqbase + i`.
///
/// Nulls are tracked by a lazily-allocated validity vector (1 = valid); BATs
/// holding no nulls pay nothing for it.
///
/// BATs are not thread-safe; callers (baskets) serialise access.
class Bat {
 public:
  explicit Bat(DataType type, Oid hseqbase = 0);

  Bat(const Bat&) = delete;
  Bat& operator=(const Bat&) = delete;
  // Movable so ColumnBatch can hold BATs by value; a moved-from BAT is empty.
  Bat(Bat&&) = default;
  Bat& operator=(Bat&&) = default;

  DataType type() const { return type_; }
  // Inline, since loops test `i < bat.size()` per row; branches rather
  // than a switch, whose jump table made bench_specialize's selection
  // rows 6-9% slower than the out-of-line call.
  size_t size() const {
    if (type_ == DataType::kDouble) return double_data_.size();
    if (type_ == DataType::kString) return string_data_.size();
    if (type_ == DataType::kBool) return bool_data_.size();
    return int64_data_.size();  // int64 and timestamp
  }
  bool empty() const { return size() == 0; }
  /// Oid of the value at position 0; position i has oid `hseqbase() + i`.
  Oid hseqbase() const { return hseqbase_; }

  // --- Appends (type must match; checked) -----------------------------
  // The scalar numeric appends are inline: adapters refill persistent
  // ColumnBatches one value at a time, so a call per value would dominate
  // the zero-copy ingest path.
  void AppendInt64(int64_t v) {
    DC_CHECK(IsIntegerBacked(type_));
    int64_data_.push_back(v);
    if (!validity_.empty()) validity_.push_back(1);
  }
  void AppendDouble(double v) {
    DC_CHECK(type_ == DataType::kDouble);
    double_data_.push_back(v);
    if (!validity_.empty()) validity_.push_back(1);
  }
  void AppendBool(bool v) {
    DC_CHECK(type_ == DataType::kBool);
    bool_data_.push_back(v ? 1 : 0);
    if (!validity_.empty()) validity_.push_back(1);
  }
  void AppendString(std::string v);
  void AppendNull();
  /// Type-checked append of a peripheral `Value` (null allowed).
  Status AppendValue(const Value& v);
  /// Append of a `Value` the caller has already validated against this BAT's
  /// type (CheckValueType passed). Skips the per-value Status machinery of
  /// AppendValue — the hot ingest path validates once per batch, not per
  /// field. Nulls allowed.
  void AppendValueUnchecked(const Value& v);
  /// Appends all of `other` (same type required).
  void AppendBat(const Bat& other);
  /// Appends positions `positions` of `other`. Positions must be in range
  /// (debug-checked; they come from the select kernels).
  void AppendPositions(const Bat& other, const std::vector<size_t>& positions);
  /// Appends `n` copies of `v` (integer-backed BATs only) — the bulk
  /// timestamp-stamping path; a constant fill the compiler vectorises.
  void AppendConstantInt64(int64_t v, size_t n);
  /// Appends `n` uninitialised values (integer-backed BATs holding no
  /// nulls, checked) and returns the write pointer for them; the caller
  /// fills all `n`.
  int64_t* AppendUninitializedInt64(size_t n);

  // --- Element access --------------------------------------------------
  bool IsNull(size_t pos) const;
  bool has_nulls() const { return !validity_.empty(); }
  /// Raw validity mask (1 = valid), or nullptr when the BAT never held a
  /// null — the form the raw-buffer kernels consume.
  const uint8_t* validity_data() const {
    return validity_.empty() ? nullptr : validity_.data();
  }
  Value GetValue(size_t pos) const;
  int64_t Int64At(size_t pos) const { return int64_data_[pos]; }
  double DoubleAt(size_t pos) const { return double_data_[pos]; }
  bool BoolAt(size_t pos) const { return bool_data_[pos] != 0; }
  const std::string& StringAt(size_t pos) const { return string_data_[pos]; }

  // --- Bulk typed access (hot paths) ------------------------------------
  const std::vector<int64_t>& int64_data() const { return int64_data_; }
  const std::vector<double>& double_data() const { return double_data_; }
  const std::vector<uint8_t>& bool_data() const { return bool_data_; }
  const std::vector<std::string>& string_data() const { return string_data_; }

  // --- Bulk restructuring ------------------------------------------------
  /// New BAT holding positions [offset, offset+length); hseqbase is carried
  /// over so oids stay meaningful.
  std::unique_ptr<Bat> Slice(size_t offset, size_t length) const;
  /// New BAT holding the given positions, with a fresh dense head starting
  /// at `new_hseqbase` (projection re-numbers tuples, as in MonetDB's
  /// order-preserving projection).
  std::unique_ptr<Bat> Take(const std::vector<size_t>& positions,
                            Oid new_hseqbase = 0) const;
  std::unique_ptr<Bat> Clone() const;

  // --- Zero-copy buffer exchange (the stealing-drain primitives) ---------
  /// Moves this BAT's content into `dst` (same type; `dst` must be empty):
  /// the underlying buffers are *swapped*, so `dst` receives the data without
  /// copying and this BAT is left empty but holding `dst`'s old buffer
  /// capacity (buffer ping-pong — in steady state the same allocations cycle
  /// between producer and consumer). `dst`'s hseqbase becomes this BAT's old
  /// hseqbase; this BAT's hseqbase advances past the moved content, exactly
  /// as Clear() would.
  void MoveContentInto(Bat& dst);
  /// Steals `src`'s content (same type required). When this BAT is empty the
  /// buffers are swapped (`src` receives this BAT's old capacity); otherwise
  /// falls back to a bulk copying append. Either way `src` is left empty with
  /// its hseqbase advanced (like Clear()); this BAT's hseqbase is preserved.
  void TakeContentFrom(Bat& src);
  /// Keeps only the first `n` values (n <= size); hseqbase and buffer
  /// capacity are unchanged. Used to roll back a partially-parsed row.
  void Truncate(size_t n);

  /// Drops the first `n` values; hseqbase advances by `n`. This is how a
  /// basket consumes a processed prefix. O(size) — baskets are small by
  /// construction (they hold only unprocessed stream portions).
  void RemovePrefix(size_t n);
  /// Drops the values at the (sorted, unique) positions — the side effect of
  /// a basket expression that consumed a subset of the tuples. Remaining
  /// values are compacted; hseqbase is unchanged (oids of survivors shift,
  /// matching MonetDB's dense-head compaction on delete).
  void RemovePositions(const std::vector<size_t>& sorted_positions);
  /// Drops everything; hseqbase advances past the old content.
  void Clear();

  /// Bytes of payload currently held (approximate for strings).
  size_t MemoryUsage() const;

  /// Debug rendering "[v0, v1, ...]" capped at 32 values.
  std::string ToString() const;

 private:
  template <typename Vec>
  void RemovePrefixImpl(Vec& v, size_t n) {
    v.erase(v.begin(), v.begin() + static_cast<ptrdiff_t>(n));
  }

  DataType type_;
  Oid hseqbase_;
  // Exactly one of these is in use, chosen by type_. A variant would model
  // this more strictly but costs a visit on every hot-path access.
  std::vector<int64_t> int64_data_;
  std::vector<double> double_data_;
  std::vector<uint8_t> bool_data_;
  std::vector<std::string> string_data_;
  // Empty when no nulls were ever appended; else aligned with the data.
  std::vector<uint8_t> validity_;

  void EnsureValidity();
};

using BatPtr = std::shared_ptr<Bat>;

/// Convenience constructors used across tests and benchmarks.
BatPtr MakeInt64Bat(const std::vector<int64_t>& values, Oid hseqbase = 0);
BatPtr MakeDoubleBat(const std::vector<double>& values, Oid hseqbase = 0);
BatPtr MakeStringBat(const std::vector<std::string>& values, Oid hseqbase = 0);
BatPtr MakeBoolBat(const std::vector<bool>& values, Oid hseqbase = 0);

}  // namespace datacell

#endif  // DATACELL_STORAGE_BAT_H_
