#include "algebra/kernels.h"

#include <cstdlib>
#include <limits>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace datacell {
namespace kernel {

namespace {

/// Whether DATACELL_DISABLE_AVX2 is set to something truthy.
bool Avx2DisabledByEnv() {
  const char* env = std::getenv("DATACELL_DISABLE_AVX2");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

}  // namespace

size_t SelectRangeInt64Scalar(const int64_t* data, int64_t l, int64_t h,
                              size_t begin, size_t end, size_t* out) {
  size_t k = 0;
  for (size_t i = begin; i < end; ++i) {
    out[k] = i;
    k += static_cast<size_t>((data[i] >= l) & (data[i] <= h));
  }
  return k;
}

size_t SelectRangeDoubleScalar(const double* data, double l, double h,
                               size_t begin, size_t end, size_t* out) {
  size_t k = 0;
  for (size_t i = begin; i < end; ++i) {
    out[k] = i;
    k += static_cast<size_t>((data[i] >= l) & (data[i] <= h));
  }
  return k;
}

#if defined(__x86_64__)

namespace {

/// For each 4-bit keep mask, the qualifying lane indices packed LSB-first
/// (trailing entries are padding, overwritten by the next block's stores).
struct LaneLut {
  uint8_t idx[4];
};
constexpr LaneLut kLanes[16] = {
    {{0, 0, 0, 0}}, {{0, 0, 0, 0}}, {{1, 0, 0, 0}}, {{0, 1, 0, 0}},
    {{2, 0, 0, 0}}, {{0, 2, 0, 0}}, {{1, 2, 0, 0}}, {{0, 1, 2, 0}},
    {{3, 0, 0, 0}}, {{0, 3, 0, 0}}, {{1, 3, 0, 0}}, {{0, 1, 3, 0}},
    {{2, 3, 0, 0}}, {{0, 2, 3, 0}}, {{1, 2, 3, 0}}, {{0, 1, 2, 3}},
};

/// Emits one 4-lane block: four unconditional stores, cursor advances by
/// popcount. Writing past the live prefix is safe — with `k` qualifiers out
/// of `i - begin` scanned, k + 3 <= end - begin - 1 inside the vector loop.
inline size_t EmitBlock(size_t* out, size_t k, size_t i, int keep) {
  const LaneLut& lut = kLanes[keep];
  out[k + 0] = i + lut.idx[0];
  out[k + 1] = i + lut.idx[1];
  out[k + 2] = i + lut.idx[2];
  out[k + 3] = i + lut.idx[3];
  return k + static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(keep)));
}

}  // namespace

__attribute__((target("avx2"))) size_t SelectRangeInt64Avx2(
    const int64_t* data, int64_t l, int64_t h, size_t begin, size_t end,
    size_t* out) {
  size_t k = 0;
  size_t i = begin;
  const __m256i vlo = _mm256_set1_epi64x(l);
  const __m256i vhi = _mm256_set1_epi64x(h);
  for (; i + 4 <= end; i += 4) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    // keep = !(v < l) && !(v > h), via the only 64-bit compare AVX2 has.
    __m256i lt = _mm256_cmpgt_epi64(vlo, v);
    __m256i gt = _mm256_cmpgt_epi64(v, vhi);
    int drop = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_or_si256(lt, gt)));
    k = EmitBlock(out, k, i, ~drop & 0xF);
  }
  for (; i < end; ++i) {
    out[k] = i;
    k += static_cast<size_t>((data[i] >= l) & (data[i] <= h));
  }
  return k;
}

__attribute__((target("avx2"))) size_t SelectRangeDoubleAvx2(
    const double* data, double l, double h, size_t begin, size_t end,
    size_t* out) {
  size_t k = 0;
  size_t i = begin;
  const __m256d vlo = _mm256_set1_pd(l);
  const __m256d vhi = _mm256_set1_pd(h);
  for (; i + 4 <= end; i += 4) {
    __m256d v = _mm256_loadu_pd(data + i);
    // Ordered-quiet compares: NaN fails both, as in the scalar kernel.
    __m256d ge = _mm256_cmp_pd(v, vlo, _CMP_GE_OQ);
    __m256d le = _mm256_cmp_pd(v, vhi, _CMP_LE_OQ);
    int keep = _mm256_movemask_pd(_mm256_and_pd(ge, le));
    k = EmitBlock(out, k, i, keep);
  }
  for (; i < end; ++i) {
    out[k] = i;
    k += static_cast<size_t>((data[i] >= l) & (data[i] <= h));
  }
  return k;
}

bool HasAvx2() {
  static const bool has =
      !Avx2DisabledByEnv() && __builtin_cpu_supports("avx2") != 0;
  return has;
}

#else  // !defined(__x86_64__)

size_t SelectRangeInt64Avx2(const int64_t* data, int64_t l, int64_t h,
                            size_t begin, size_t end, size_t* out) {
  return SelectRangeInt64Scalar(data, l, h, begin, end, out);
}

size_t SelectRangeDoubleAvx2(const double* data, double l, double h,
                             size_t begin, size_t end, size_t* out) {
  return SelectRangeDoubleScalar(data, l, h, begin, end, out);
}

bool HasAvx2() { return false; }

#endif  // defined(__x86_64__)

size_t SelectRangeInt64(const int64_t* data, int64_t l, int64_t h,
                        size_t begin, size_t end, size_t* out) {
  return HasAvx2() ? SelectRangeInt64Avx2(data, l, h, begin, end, out)
                   : SelectRangeInt64Scalar(data, l, h, begin, end, out);
}

size_t SelectRangeDouble(const double* data, double l, double h, size_t begin,
                         size_t end, size_t* out) {
  return HasAvx2() ? SelectRangeDoubleAvx2(data, l, h, begin, end, out)
                   : SelectRangeDoubleScalar(data, l, h, begin, end, out);
}

// --- Int64HashIndex ------------------------------------------------------

namespace {

/// Multiplicative hash with a finalizing xor-shift; good enough spread for
/// linear probing at 50% max load.
inline uint64_t HashInt64Key(int64_t key) {
  uint64_t h = static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull;
  return h ^ (h >> 29);
}

}  // namespace

size_t Int64HashIndex::SlotFor(int64_t key) const {
  size_t s = static_cast<size_t>(HashInt64Key(key)) & mask_;
  while (slot_used_[s] && slot_key_[s] != key) {
    s = (s + 1) & mask_;
  }
  return s;
}

void Int64HashIndex::Build(const int64_t* keys, const uint8_t* valid,
                           size_t n) {
  positions_.clear();
  size_t live = 0;
  for (size_t i = 0; i < n; ++i) {
    live += static_cast<size_t>(valid == nullptr || valid[i] != 0);
  }
  size_t capacity = 4;
  while (capacity < live * 2) capacity *= 2;
  slot_key_.assign(capacity, 0);
  slot_start_.assign(capacity, 0);
  slot_end_.assign(capacity, 0);
  slot_used_.assign(capacity, 0);
  mask_ = capacity - 1;
  if (live == 0) return;
  // Pass 1: claim slots, count rows per distinct key (in slot_end_).
  for (size_t i = 0; i < n; ++i) {
    if (valid != nullptr && valid[i] == 0) continue;
    size_t s = SlotFor(keys[i]);
    if (!slot_used_[s]) {
      slot_used_[s] = 1;
      slot_key_[s] = keys[i];
    }
    ++slot_end_[s];
  }
  // Prefix-sum the counts into ranges; slot_end_ becomes the fill cursor.
  uint32_t off = 0;
  for (size_t s = 0; s < capacity; ++s) {
    if (!slot_used_[s]) continue;
    slot_start_[s] = off;
    off += slot_end_[s];
    slot_end_[s] = slot_start_[s];
  }
  positions_.resize(off);
  // Pass 2: fill, ascending build positions within each key group — the
  // order the generic HashJoin emits.
  for (size_t i = 0; i < n; ++i) {
    if (valid != nullptr && valid[i] == 0) continue;
    size_t s = SlotFor(keys[i]);
    positions_[slot_end_[s]++] = static_cast<uint32_t>(i);
  }
}

void Int64HashIndex::Probe(const int64_t* keys, const uint8_t* valid,
                           size_t n, std::vector<size_t>* probe_positions,
                           std::vector<size_t>* build_positions) const {
  if (positions_.empty()) return;
  for (size_t i = 0; i < n; ++i) {
    if (valid != nullptr && valid[i] == 0) continue;
    int64_t key = keys[i];
    size_t s = static_cast<size_t>(HashInt64Key(key)) & mask_;
    while (slot_used_[s]) {
      if (slot_key_[s] == key) {
        for (uint32_t p = slot_start_[s]; p < slot_end_[s]; ++p) {
          probe_positions->push_back(i);
          build_positions->push_back(positions_[p]);
        }
        break;
      }
      s = (s + 1) & mask_;
    }
  }
}

// --- Int64GroupTable -----------------------------------------------------

size_t Int64GroupTable::SlotFor(int64_t key) const {
  size_t s = static_cast<size_t>(HashInt64Key(key)) & mask_;
  while (slots_[s].gen == gen_ && slots_[s].key != key) {
    s = (s + 1) & mask_;
  }
  return s;
}

void Int64GroupTable::Grow() {
  std::vector<Slot> old(slots_.size() * 2);  // exact capacity, all gen 0
  old.swap(slots_);
  mask_ = slots_.size() - 1;
  for (const Slot& o : old) {
    if (o.gen == gen_) slots_[SlotFor(o.key)] = o;
  }
}

size_t Int64GroupTable::Group(const int64_t* keys, const uint8_t* valid,
                              const size_t* rows, size_t n,
                              uint32_t* group_ids,
                              std::vector<size_t>* representatives) {
  if (slots_.empty()) {
    std::vector<Slot>(kMinCapacity).swap(slots_);
    mask_ = kMinCapacity - 1;
  }
  // A new generation empties the table; on wrap-around, stale stamps could
  // alias the new one, so clear them once.
  if (++gen_ == 0) {
    for (Slot& s : slots_) s.gen = 0;
    gen_ = 1;
  }
  size_t live = 0;  // non-null keys placed in this call
  uint32_t groups = 0;
  constexpr uint32_t kNoGroup = std::numeric_limits<uint32_t>::max();
  uint32_t null_group = kNoGroup;
  for (size_t k = 0; k < n; ++k) {
    size_t pos = rows != nullptr ? rows[k] : k;
    if (valid != nullptr && valid[pos] == 0) {
      if (null_group == kNoGroup) {
        null_group = groups++;
        representatives->push_back(pos);
      }
      group_ids[k] = null_group;
      continue;
    }
    int64_t key = keys[pos];
    size_t s = SlotFor(key);
    if (slots_[s].gen != gen_) {
      if (2 * (live + 1) > slots_.size()) {
        Grow();
        s = SlotFor(key);
      }
      slots_[s] = Slot{key, gen_, groups++};
      ++live;
      representatives->push_back(pos);
    }
    group_ids[k] = slots_[s].group;
  }
  return groups;
}

}  // namespace kernel
}  // namespace datacell
