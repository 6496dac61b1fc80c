#ifndef DATACELL_COMMON_HASH_H_
#define DATACELL_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace datacell {

/// The engine-wide row-hash: FNV-1a over the value's byte representation.
///
/// This is THE shard placement function: the shard router (core/shard.h)
/// splits ingest batches with it. The hash_test suite locks the concrete
/// values.
///
/// Conventions of the typed helpers:
///   - -0.0 folds onto +0.0 before mixing (they compare equal in SQL, so
///     they must land on the same shard),
///   - the router mixes timestamps with HashInt64 (they are integer-backed
///     and compare as integers) and hashes nulls to 0, so null-key rows
///     co-locate on shard 0,
///   - strings mix their bytes, without the length (single-value hashes
///     never concatenate, so no framing is needed).
///
/// Header-only on purpose: datacell_common stays free of a link dependency
/// on storage.

inline constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;

/// Folds `n` bytes at `p` into `h` (FNV-1a step).
inline uint64_t FnvMixBytes(uint64_t h, const void* p, size_t n) {
  const unsigned char* b = static_cast<const unsigned char*>(p);
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ b[i]) * kFnvPrime;
  }
  return h;
}

inline uint64_t HashBool(bool v) {
  unsigned char b = v ? 1 : 0;
  return FnvMixBytes(kFnvOffsetBasis, &b, 1);
}

inline uint64_t HashInt64(int64_t v) {
  return FnvMixBytes(kFnvOffsetBasis, &v, sizeof(v));
}

inline uint64_t HashDouble(double v) {
  if (v == 0.0) v = 0.0;  // fold -0.0 onto +0.0: they compare equal
  return FnvMixBytes(kFnvOffsetBasis, &v, sizeof(v));
}

inline uint64_t HashString(std::string_view v) {
  return FnvMixBytes(kFnvOffsetBasis, v.data(), v.size());
}

}  // namespace datacell

#endif  // DATACELL_COMMON_HASH_H_
