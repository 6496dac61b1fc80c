#ifndef DATACELL_ALGEBRA_KERNELS_H_
#define DATACELL_ALGEBRA_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace datacell {
/// Tight per-type selection kernels under the algebra operators. These work
/// on raw buffers (no Bat, no nulls — callers handle the null path) so the
/// compiler sees plain loops over contiguous data.
///
/// The scalar variants use the branch-free compress idiom
/// (`out[k] = i; k += predicate`) whose loop-carried dependence on `k`
/// defeats autovectorisation without AVX-512 compress stores — hence the
/// explicit AVX2 variants: compare, movemask, a 16-entry lane-index LUT and
/// four unconditional stores per block. Selected at runtime via
/// __builtin_cpu_supports, so the binary stays portable.
namespace kernel {

/// True when the running CPU supports AVX2 (result cached after first call).
/// Setting the environment variable DATACELL_DISABLE_AVX2 (to anything but
/// "0" or empty) forces the scalar paths — the CI knob that keeps scalar
/// and SIMD variants verified against each other on AVX2 boxes.
bool HasAvx2();

/// Writes every position i in [begin, end) with l <= data[i] <= h into
/// `out`, which must have room for end - begin entries; returns the count.
/// Bounds are inclusive. All variants of one type produce identical output.
size_t SelectRangeInt64Scalar(const int64_t* data, int64_t l, int64_t h,
                              size_t begin, size_t end, size_t* out);
size_t SelectRangeInt64Avx2(const int64_t* data, int64_t l, int64_t h,
                            size_t begin, size_t end, size_t* out);
/// Runtime-dispatched: AVX2 when available, scalar otherwise.
size_t SelectRangeInt64(const int64_t* data, int64_t l, int64_t h,
                        size_t begin, size_t end, size_t* out);

/// Double range select; NaN never qualifies (matches the scalar comparison
/// and the ordered-quiet AVX2 compares).
size_t SelectRangeDoubleScalar(const double* data, double l, double h,
                               size_t begin, size_t end, size_t* out);
size_t SelectRangeDoubleAvx2(const double* data, double l, double h,
                             size_t begin, size_t end, size_t* out);
size_t SelectRangeDouble(const double* data, double l, double h, size_t begin,
                         size_t end, size_t* out);

// --- Int64 hash-join index ----------------------------------------------

/// Open-addressing hash index over an int64 key column: the HashJoin node
/// keeps one over a static build side across firings, rebuilds it when the
/// table grows, and probes it per firing. Matches the generic HashJoin operator's output
/// contract: probe rows in input order, and for each probe row the matching
/// build positions in ascending order; null keys (marked invalid in the
/// optional validity mask, 1 = valid) neither build nor probe.
class Int64HashIndex {
 public:
  /// (Re)builds the index over keys[0..n). `valid` may be null (no nulls).
  void Build(const int64_t* keys, const uint8_t* valid, size_t n);

  /// Appends one (probe position, build position) pair per match.
  void Probe(const int64_t* keys, const uint8_t* valid, size_t n,
             std::vector<size_t>* probe_positions,
             std::vector<size_t>* build_positions) const;

  /// Number of (non-null) build rows indexed.
  size_t num_entries() const { return positions_.size(); }

  /// Upper bound on memory_bytes() after Build over `rows` keys — what the
  /// pass-4 analyzer prices join indexes at. Mirrors Build's sizing: slot
  /// arrays at the pow2 capacity >= max(4, 2*rows), positions_ with the
  /// 2x geometric push_back slack.
  static size_t EstimatedBuildBytes(size_t rows) {
    size_t capacity = 4;
    while (capacity < rows * 2) capacity *= 2;
    return capacity * (sizeof(int64_t) + 2 * sizeof(uint32_t) +
                       sizeof(uint8_t)) +
           2 * rows * sizeof(uint32_t);
  }

  /// Bytes held by the slot and position arrays — the pass-4 state
  /// accounting hook (compared against the static join-state bound).
  size_t memory_bytes() const {
    return slot_key_.capacity() * sizeof(int64_t) +
           slot_start_.capacity() * sizeof(uint32_t) +
           slot_end_.capacity() * sizeof(uint32_t) +
           slot_used_.capacity() * sizeof(uint8_t) +
           positions_.capacity() * sizeof(uint32_t);
  }

 private:
  size_t SlotFor(int64_t key) const;

  // Slot arrays (power-of-two capacity, linear probing): the key, a
  // [start, end) range into positions_, and an occupancy flag.
  std::vector<int64_t> slot_key_;
  std::vector<uint32_t> slot_start_;
  std::vector<uint32_t> slot_end_;
  std::vector<uint8_t> slot_used_;
  size_t mask_ = 0;
  // Build positions grouped by key, ascending within each group.
  std::vector<uint32_t> positions_;
};

// --- Int64 hash grouping -------------------------------------------------

/// Open-addressing group table over one int64 key column: the Aggregate
/// node's replacement for GroupBy's string-keyed map when it groups by one
/// integer-backed column. The node keeps one across firings:
///   - slots carry a generation stamp, so each Group() call starts from an
///     empty table in O(1), without clearing the slot array;
///   - capacity is a power of two with linear probing, doubled only when the
///     distinct keys of a call pass half of it. It follows the number of
///     groups, never the batch length.
/// Group ids are dense in first-appearance order, and all null keys share
/// one group placed at the first null: exactly GroupBy()'s numbering
/// (operators.h), whose key encoding gives every null the same key.
class Int64GroupTable {
 public:
  /// Groups n rows and returns the number of groups. Row k reads
  /// keys[rows[k]] (keys[k] when `rows` is null); `valid` (1 = valid, may be
  /// null) marks null keys. Writes each row's group id to group_ids[k] and
  /// appends each group's first row position to `representatives`.
  size_t Group(const int64_t* keys, const uint8_t* valid, const size_t* rows,
               size_t n, uint32_t* group_ids,
               std::vector<size_t>* representatives);

  /// Bytes held by the slot array — the pass-4 state accounting hook.
  size_t memory_bytes() const { return slots_.capacity() * sizeof(Slot); }

  /// memory_bytes() once `keys` distinct non-null keys have been grouped in
  /// one call — what the pass-4 analyzer prices group-by state at. Mirrors
  /// Group()'s sizing: the smallest power of two >= max(16, 2 * keys).
  static size_t EstimatedBytes(size_t keys) {
    size_t capacity = kMinCapacity;
    while (capacity < keys * 2) capacity *= 2;
    return capacity * sizeof(Slot);
  }

 private:
  struct Slot {
    int64_t key = 0;
    uint32_t gen = 0;    // live in the current call iff == gen_
    uint32_t group = 0;
  };
  static constexpr size_t kMinCapacity = 16;

  size_t SlotFor(int64_t key) const;
  void Grow();

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  uint32_t gen_ = 0;
};

}  // namespace kernel
}  // namespace datacell

#endif  // DATACELL_ALGEBRA_KERNELS_H_
