#include "algebra/operators.h"

#include <algorithm>
#include <type_traits>
#include <unordered_map>

#include "algebra/kernels.h"
#include "common/check.h"

namespace datacell {

namespace {

/// Branch-light range scan: the qualifying position is written
/// unconditionally and the cursor advances by the predicate result, so the
/// inner loop carries no hard-to-predict branch.
template <typename T>
void SelectRangeImpl(const Bat& b, const T* data, size_t n, T l, T h,
                     std::vector<size_t>* out) {
  out->resize(n);  // one exact size, no push_back growth
  size_t* pos = out->data();
  size_t k = 0;
  if (!b.has_nulls()) {
    // Null-free columns hit the raw-buffer kernels, which pick the AVX2
    // variant at runtime when the CPU has it.
    if constexpr (std::is_same_v<T, int64_t>) {
      k = kernel::SelectRangeInt64(data, l, h, 0, n, pos);
    } else {
      k = kernel::SelectRangeDouble(data, l, h, 0, n, pos);
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      pos[k] = i;
      k += static_cast<size_t>(!b.IsNull(i) && data[i] >= l && data[i] <= h);
    }
  }
  out->resize(k);
}

}  // namespace

void SelectRangeInt64(const Bat& b, std::optional<int64_t> lo,
                      std::optional<int64_t> hi, std::vector<size_t>* out) {
  DC_CHECK(IsIntegerBacked(b.type()));
  const auto& data = b.int64_data();
  SelectRangeImpl<int64_t>(b, data.data(), data.size(),
                           lo.value_or(std::numeric_limits<int64_t>::min()),
                           hi.value_or(std::numeric_limits<int64_t>::max()),
                           out);
}

void SelectRangeDouble(const Bat& b, std::optional<double> lo,
                       std::optional<double> hi, std::vector<size_t>* out) {
  DC_CHECK(b.type() == DataType::kDouble);
  const auto& data = b.double_data();
  SelectRangeImpl<double>(b, data.data(), data.size(),
                          lo.value_or(-std::numeric_limits<double>::infinity()),
                          hi.value_or(std::numeric_limits<double>::infinity()),
                          out);
}

std::vector<size_t> SelectRangeInt64(const Bat& b, std::optional<int64_t> lo,
                                     std::optional<int64_t> hi) {
  std::vector<size_t> out;
  SelectRangeInt64(b, lo, hi, &out);
  return out;
}

std::vector<size_t> SelectRangeDouble(const Bat& b, std::optional<double> lo,
                                      std::optional<double> hi) {
  std::vector<size_t> out;
  SelectRangeDouble(b, lo, hi, &out);
  return out;
}

std::vector<size_t> SelectEqString(const Bat& b, const std::string& v) {
  DC_CHECK(b.type() == DataType::kString);
  const auto& data = b.string_data();
  size_t n = data.size();
  std::vector<size_t> out;
  // Equality on strings is usually selective; a modest reservation avoids
  // the early doubling copies without committing n * 8 bytes up front.
  out.reserve(n / 8 + 16);
  for (size_t i = 0; i < n; ++i) {
    if (!b.IsNull(i) && data[i] == v) out.push_back(i);
  }
  return out;
}

std::vector<size_t> ComplementPositions(const std::vector<size_t>& a,
                                        size_t n) {
  std::vector<size_t> out;
  out.reserve(n - std::min(n, a.size()));
  size_t next = 0;
  for (size_t i = 0; i < n; ++i) {
    if (next < a.size() && a[next] == i) {
      ++next;
      continue;
    }
    out.push_back(i);
  }
  return out;
}

namespace {

/// Canonical hashable key for one value of `b` at position i. Strings get a
/// type-tag prefix so "1" and 1 never collide across group columns.
void AppendKeyBytes(const Bat& b, size_t i, std::string* key) {
  if (b.IsNull(i)) {
    key->push_back('\x00');
    return;
  }
  switch (b.type()) {
    case DataType::kInt64:
    case DataType::kTimestamp: {
      key->push_back('\x01');
      int64_t v = b.Int64At(i);
      key->append(reinterpret_cast<const char*>(&v), sizeof(v));
      break;
    }
    case DataType::kDouble: {
      key->push_back('\x02');
      double v = b.DoubleAt(i);
      key->append(reinterpret_cast<const char*>(&v), sizeof(v));
      break;
    }
    case DataType::kBool:
      key->push_back('\x03');
      key->push_back(b.BoolAt(i) ? 1 : 0);
      break;
    case DataType::kString: {
      key->push_back('\x04');
      const std::string& s = b.StringAt(i);
      uint32_t len = static_cast<uint32_t>(s.size());
      key->append(reinterpret_cast<const char*>(&len), sizeof(len));
      key->append(s);
      break;
    }
  }
}

}  // namespace

Result<JoinResult> HashJoin(const Bat& left_key, const Bat& right_key) {
  if (left_key.type() != right_key.type() &&
      !(IsIntegerBacked(left_key.type()) && IsIntegerBacked(right_key.type()))) {
    return Status::TypeError("join key type mismatch");
  }
  // Build on the right side, probe with the left.
  std::unordered_map<std::string, std::vector<size_t>> build;
  build.reserve(right_key.size());
  std::string key;
  for (size_t i = 0; i < right_key.size(); ++i) {
    if (right_key.IsNull(i)) continue;
    key.clear();
    AppendKeyBytes(right_key, i, &key);
    build[key].push_back(i);
  }
  JoinResult out;
  const size_t n = left_key.size();
  for (size_t i = 0; i < n; ++i) {
    if (left_key.IsNull(i)) continue;
    key.clear();
    AppendKeyBytes(left_key, i, &key);
    auto it = build.find(key);
    if (it == build.end()) continue;
    for (size_t r : it->second) {
      out.left_positions.push_back(i);
      out.right_positions.push_back(r);
    }
  }
  return out;
}

Result<Grouping> GroupBy(const Table& input,
                         const std::vector<size_t>& key_columns) {
  for (size_t c : key_columns) {
    if (c >= input.num_columns()) {
      return Status::Internal("group-by column index out of range");
    }
  }
  Grouping g;
  size_t n = input.num_rows();
  g.group_ids.resize(n);
  std::unordered_map<std::string, size_t> ids;
  ids.reserve(n);
  std::string key;
  for (size_t i = 0; i < n; ++i) {
    key.clear();
    for (size_t c : key_columns) {
      AppendKeyBytes(*input.column(c), i, &key);
    }
    auto [it, inserted] = ids.emplace(key, g.num_groups);
    if (inserted) {
      g.representatives.push_back(i);
      ++g.num_groups;
    }
    g.group_ids[i] = it->second;
  }
  return g;
}

const char* AggFuncToString(AggFunc f) {
  switch (f) {
    case AggFunc::kCount:
      return "count";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
    case AggFunc::kAvg:
      return "avg";
  }
  return "?";
}

Value AggPartial::Finalize(AggFunc f) const {
  switch (f) {
    case AggFunc::kCount:
      return Value::Int64(count);
    case AggFunc::kSum:
      return count == 0 ? Value::Null() : Value::Double(sum);
    case AggFunc::kMin:
      return count == 0 ? Value::Null() : Value::Double(min);
    case AggFunc::kMax:
      return count == 0 ? Value::Null() : Value::Double(max);
    case AggFunc::kAvg:
      return count == 0 ? Value::Null()
                        : Value::Double(sum / static_cast<double>(count));
  }
  return Value::Null();
}

namespace {

Status CheckAggregatable(const Bat& values) {
  if (!IsNumeric(values.type()) && values.type() != DataType::kBool) {
    return Status::TypeError(
        std::string("cannot aggregate values of type ") +
        DataTypeToString(values.type()));
  }
  return Status::OK();
}

inline double AggValueAt(const Bat& b, size_t i) {
  switch (b.type()) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      return static_cast<double>(b.Int64At(i));
    case DataType::kDouble:
      return b.DoubleAt(i);
    case DataType::kBool:
      return b.BoolAt(i) ? 1.0 : 0.0;
    default:
      DC_CHECK(false);
      return 0.0;
  }
}

}  // namespace

Status AggregateByGroup(const Bat& values, AggFunc func,
                        const uint32_t* group_ids, const size_t* rows,
                        size_t n, size_t num_groups, Bat* out) {
  DC_RETURN_NOT_OK(CheckAggregatable(values));
  const uint8_t* valid = values.validity_data();
  // Visits the aggregated rows in order, skipping null values.
  auto each = [&](auto update) {
    for (size_t k = 0; k < n; ++k) {
      const size_t p = rows != nullptr ? rows[k] : k;
      if (valid != nullptr && valid[p] == 0) continue;
      update(group_ids[k], p);
    }
  };
  std::vector<int64_t> count(num_groups, 0);
  if (func == AggFunc::kCount) {
    each([&](uint32_t g, size_t) { ++count[g]; });
    std::copy(count.begin(), count.end(),
              out->AppendUninitializedInt64(num_groups));
    return Status::OK();
  }
  // One typed accumulator per group, updated as AggPartial::AddValue
  // updates the matching field.
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> acc(num_groups, func == AggFunc::kMin   ? kInf
                                      : func == AggFunc::kMax ? -kInf
                                                              : 0.0);
  auto fold = [&](auto value_at) {
    switch (func) {
      case AggFunc::kMin:
        each([&](uint32_t g, size_t p) {
          const double v = value_at(p);
          ++count[g];
          if (v < acc[g]) acc[g] = v;
        });
        break;
      case AggFunc::kMax:
        each([&](uint32_t g, size_t p) {
          const double v = value_at(p);
          ++count[g];
          if (v > acc[g]) acc[g] = v;
        });
        break;
      default:  // sum, avg
        each([&](uint32_t g, size_t p) {
          ++count[g];
          acc[g] += value_at(p);
        });
        break;
    }
  };
  switch (values.type()) {
    case DataType::kDouble: {
      const double* d = values.double_data().data();
      fold([d](size_t p) { return d[p]; });
      break;
    }
    case DataType::kBool: {
      const uint8_t* d = values.bool_data().data();
      fold([d](size_t p) { return d[p] != 0 ? 1.0 : 0.0; });
      break;
    }
    default: {
      const int64_t* d = values.int64_data().data();
      fold([d](size_t p) { return static_cast<double>(d[p]); });
      break;
    }
  }
  // Finalized as AggPartial::Finalize does.
  for (size_t g = 0; g < num_groups; ++g) {
    if (count[g] == 0) {
      out->AppendNull();
    } else {
      out->AppendDouble(func == AggFunc::kAvg
                            ? acc[g] / static_cast<double>(count[g])
                            : acc[g]);
    }
  }
  return Status::OK();
}

Result<AggPartial> AggregateAll(const Bat& values,
                                const std::vector<size_t>* positions) {
  DC_RETURN_NOT_OK(CheckAggregatable(values));
  AggPartial p;
  if (positions == nullptr) {
    const size_t n = values.size();
    for (size_t i = 0; i < n; ++i) {
      if (!values.IsNull(i)) p.AddValue(AggValueAt(values, i));
    }
  } else {
    for (size_t i : *positions) {
      if (!values.IsNull(i)) p.AddValue(AggValueAt(values, i));
    }
  }
  return p;
}

Result<std::vector<size_t>> SortPositions(const Table& input,
                                          const std::vector<SortKey>& keys) {
  for (const SortKey& k : keys) {
    if (k.column >= input.num_columns()) {
      return Status::Internal("sort column index out of range");
    }
  }
  std::vector<size_t> perm(input.num_rows());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  std::stable_sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
    for (const SortKey& k : keys) {
      const Bat& col = *input.column(k.column);
      Value va = col.GetValue(a);
      Value vb = col.GetValue(b);
      if (va < vb) return k.ascending;
      if (vb < va) return !k.ascending;
    }
    return false;
  });
  return perm;
}

std::vector<size_t> DistinctPositions(const Table& input) {
  std::vector<size_t> out;
  std::unordered_map<std::string, size_t> seen;
  std::string key;
  for (size_t i = 0; i < input.num_rows(); ++i) {
    key.clear();
    for (size_t c = 0; c < input.num_columns(); ++c) {
      AppendKeyBytes(*input.column(c), i, &key);
    }
    auto [it, inserted] = seen.emplace(key, i);
    if (inserted) out.push_back(i);
  }
  return out;
}

Result<std::vector<size_t>> TopN(const Table& input,
                                 const std::vector<SortKey>& keys, size_t n) {
  DC_ASSIGN_OR_RETURN(std::vector<size_t> perm, SortPositions(input, keys));
  if (perm.size() > n) perm.resize(n);
  return perm;
}

}  // namespace datacell
