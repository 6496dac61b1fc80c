#include "storage/bat.h"

#include <algorithm>

#include "common/check.h"

namespace datacell {

Bat::Bat(DataType type, Oid hseqbase) : type_(type), hseqbase_(hseqbase) {}

void Bat::EnsureValidity() {
  if (validity_.empty()) validity_.assign(size(), 1);
}

void Bat::AppendString(std::string v) {
  DC_CHECK(type_ == DataType::kString);
  string_data_.push_back(std::move(v));
  if (!validity_.empty()) validity_.push_back(1);
}

void Bat::AppendNull() {
  EnsureValidity();
  switch (type_) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      int64_data_.push_back(0);
      break;
    case DataType::kDouble:
      double_data_.push_back(0.0);
      break;
    case DataType::kBool:
      bool_data_.push_back(0);
      break;
    case DataType::kString:
      string_data_.emplace_back();
      break;
  }
  validity_.push_back(0);
}

Status Bat::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return Status::OK();
  }
  switch (type_) {
    case DataType::kInt64:
      if (!v.is_int64()) {
        return Status::TypeError("expected int64 value");
      }
      AppendInt64(v.int64_value());
      return Status::OK();
    case DataType::kTimestamp:
      if (!v.is_timestamp() && !v.is_int64()) {
        return Status::TypeError("expected timestamp value");
      }
      AppendInt64(v.int64_value());
      return Status::OK();
    case DataType::kDouble:
      if (v.is_double()) {
        AppendDouble(v.double_value());
      } else if (v.is_int64()) {
        AppendDouble(static_cast<double>(v.int64_value()));
      } else {
        return Status::TypeError("expected double value");
      }
      return Status::OK();
    case DataType::kBool:
      if (!v.is_bool()) return Status::TypeError("expected bool value");
      AppendBool(v.bool_value());
      return Status::OK();
    case DataType::kString:
      if (!v.is_string()) return Status::TypeError("expected string value");
      AppendString(v.string_value());
      return Status::OK();
  }
  return Status::Internal("unreachable type");
}

void Bat::AppendValueUnchecked(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      AppendInt64(v.int64_value());
      break;
    case DataType::kDouble:
      // int64 widens to double, mirroring AppendValue's coercion.
      AppendDouble(v.is_double() ? v.double_value()
                                 : static_cast<double>(v.int64_value()));
      break;
    case DataType::kBool:
      AppendBool(v.bool_value());
      break;
    case DataType::kString:
      AppendString(v.string_value());
      break;
  }
}

void Bat::AppendConstantInt64(int64_t v, size_t n) {
  DC_CHECK(IsIntegerBacked(type_));
  int64_data_.resize(int64_data_.size() + n, v);
  if (!validity_.empty()) validity_.resize(validity_.size() + n, 1);
}

int64_t* Bat::AppendUninitializedInt64(size_t n) {
  DC_CHECK(IsIntegerBacked(type_));
  DC_CHECK(validity_.empty());
  size_t old = int64_data_.size();
  int64_data_.resize(old + n);
  return int64_data_.data() + old;
}

void Bat::AppendBat(const Bat& other) {
  DC_CHECK(type_ == other.type_);
  // Track validity when either side already does; note an empty destination
  // has an empty validity vector even after EnsureValidity, so the decision
  // must not depend on it becoming non-empty.
  if (!validity_.empty() || other.has_nulls()) {
    EnsureValidity();
    if (other.has_nulls()) {
      validity_.insert(validity_.end(), other.validity_.begin(),
                       other.validity_.end());
    } else {
      validity_.insert(validity_.end(), other.size(), 1);
    }
  }
  switch (type_) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      int64_data_.insert(int64_data_.end(), other.int64_data_.begin(),
                         other.int64_data_.end());
      break;
    case DataType::kDouble:
      double_data_.insert(double_data_.end(), other.double_data_.begin(),
                          other.double_data_.end());
      break;
    case DataType::kBool:
      bool_data_.insert(bool_data_.end(), other.bool_data_.begin(),
                        other.bool_data_.end());
      break;
    case DataType::kString:
      string_data_.insert(string_data_.end(), other.string_data_.begin(),
                          other.string_data_.end());
      break;
  }
}

void Bat::AppendPositions(const Bat& other, const std::vector<size_t>& positions) {
  DC_CHECK(type_ == other.type_);
  // Type dispatch and validity tracking are hoisted out of the per-position
  // loop: each gather is a tight resize-and-index loop over one vector.
  bool track = !validity_.empty() || other.has_nulls();
  if (track) {
    EnsureValidity();
    size_t base = validity_.size();
    validity_.resize(base + positions.size());
    for (size_t k = 0; k < positions.size(); ++k) {
      DC_DCHECK_LT(positions[k], other.size());
      validity_[base + k] =
          static_cast<uint8_t>(other.IsNull(positions[k]) ? 0 : 1);
    }
  }
  auto gather = [&](auto& dst, const auto& src) {
    size_t base = dst.size();
    dst.resize(base + positions.size());
    for (size_t k = 0; k < positions.size(); ++k) {
      DC_DCHECK_LT(positions[k], src.size());
      dst[base + k] = src[positions[k]];
    }
  };
  switch (type_) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      gather(int64_data_, other.int64_data_);
      break;
    case DataType::kDouble:
      gather(double_data_, other.double_data_);
      break;
    case DataType::kBool:
      gather(bool_data_, other.bool_data_);
      break;
    case DataType::kString:
      gather(string_data_, other.string_data_);
      break;
  }
}

bool Bat::IsNull(size_t pos) const {
  return !validity_.empty() && validity_[pos] == 0;
}

Value Bat::GetValue(size_t pos) const {
  DC_CHECK_LT(pos, size());
  if (IsNull(pos)) return Value::Null();
  switch (type_) {
    case DataType::kInt64:
      return Value::Int64(int64_data_[pos]);
    case DataType::kTimestamp:
      return Value::TimestampVal(int64_data_[pos]);
    case DataType::kDouble:
      return Value::Double(double_data_[pos]);
    case DataType::kBool:
      return Value::Bool(bool_data_[pos] != 0);
    case DataType::kString:
      return Value::String(string_data_[pos]);
  }
  return Value::Null();
}

std::unique_ptr<Bat> Bat::Slice(size_t offset, size_t length) const {
  DC_CHECK_LE(offset, size());
  length = std::min(length, size() - offset);
  auto out = std::make_unique<Bat>(type_, hseqbase_ + offset);
  auto copy_range = [&](auto& dst, const auto& src) {
    dst.assign(src.begin() + static_cast<ptrdiff_t>(offset),
               src.begin() + static_cast<ptrdiff_t>(offset + length));
  };
  switch (type_) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      copy_range(out->int64_data_, int64_data_);
      break;
    case DataType::kDouble:
      copy_range(out->double_data_, double_data_);
      break;
    case DataType::kBool:
      copy_range(out->bool_data_, bool_data_);
      break;
    case DataType::kString:
      copy_range(out->string_data_, string_data_);
      break;
  }
  if (!validity_.empty()) copy_range(out->validity_, validity_);
  return out;
}

std::unique_ptr<Bat> Bat::Take(const std::vector<size_t>& positions,
                               Oid new_hseqbase) const {
  auto out = std::make_unique<Bat>(type_, new_hseqbase);
  out->AppendPositions(*this, positions);
  return out;
}

std::unique_ptr<Bat> Bat::Clone() const { return Slice(0, size()); }

void Bat::MoveContentInto(Bat& dst) {
  DC_CHECK(type_ == dst.type_);
  DC_CHECK(dst.empty());
  dst.hseqbase_ = hseqbase_;
  hseqbase_ += size();
  // Swapping (rather than moving) hands dst's old empty-but-capacitied
  // buffers back to this BAT, so repeated fill/drain cycles reuse the same
  // two allocations instead of touching the allocator.
  std::swap(int64_data_, dst.int64_data_);
  std::swap(double_data_, dst.double_data_);
  std::swap(bool_data_, dst.bool_data_);
  std::swap(string_data_, dst.string_data_);
  std::swap(validity_, dst.validity_);
}

void Bat::TakeContentFrom(Bat& src) {
  DC_CHECK(type_ == src.type_);
  if (empty()) {
    Oid keep = hseqbase_;
    src.MoveContentInto(*this);
    hseqbase_ = keep;
    return;
  }
  AppendBat(src);
  src.Clear();
}

void Bat::Truncate(size_t n) {
  DC_CHECK_LE(n, size());
  int64_data_.resize(std::min(int64_data_.size(), n));
  double_data_.resize(std::min(double_data_.size(), n));
  bool_data_.resize(std::min(bool_data_.size(), n));
  string_data_.resize(std::min(string_data_.size(), n));
  if (!validity_.empty()) validity_.resize(n);
}

void Bat::RemovePrefix(size_t n) {
  n = std::min(n, size());
  switch (type_) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      RemovePrefixImpl(int64_data_, n);
      break;
    case DataType::kDouble:
      RemovePrefixImpl(double_data_, n);
      break;
    case DataType::kBool:
      RemovePrefixImpl(bool_data_, n);
      break;
    case DataType::kString:
      RemovePrefixImpl(string_data_, n);
      break;
  }
  if (!validity_.empty()) RemovePrefixImpl(validity_, n);
  hseqbase_ += n;
}

void Bat::RemovePositions(const std::vector<size_t>& sorted_positions) {
  if (sorted_positions.empty()) return;
  auto compact = [&](auto& vec) {
    size_t write = 0;
    size_t next_del = 0;
    for (size_t read = 0; read < vec.size(); ++read) {
      if (next_del < sorted_positions.size() &&
          sorted_positions[next_del] == read) {
        ++next_del;
        continue;
      }
      if (write != read) vec[write] = std::move(vec[read]);
      ++write;
    }
    vec.resize(write);
  };
  switch (type_) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      compact(int64_data_);
      break;
    case DataType::kDouble:
      compact(double_data_);
      break;
    case DataType::kBool:
      compact(bool_data_);
      break;
    case DataType::kString:
      compact(string_data_);
      break;
  }
  if (!validity_.empty()) compact(validity_);
}

void Bat::Clear() {
  hseqbase_ += size();
  int64_data_.clear();
  double_data_.clear();
  bool_data_.clear();
  string_data_.clear();
  validity_.clear();
}

size_t Bat::MemoryUsage() const {
  size_t bytes = validity_.capacity();
  switch (type_) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      bytes += int64_data_.capacity() * sizeof(int64_t);
      break;
    case DataType::kDouble:
      bytes += double_data_.capacity() * sizeof(double);
      break;
    case DataType::kBool:
      bytes += bool_data_.capacity();
      break;
    case DataType::kString:
      for (const auto& s : string_data_) bytes += sizeof(std::string) + s.capacity();
      break;
  }
  return bytes;
}

std::string Bat::ToString() const {
  std::string out = "[";
  size_t n = std::min<size_t>(size(), 32);
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) out += ", ";
    out += IsNull(i) ? "null" : GetValue(i).ToString();
  }
  if (size() > n) out += ", ...";
  out += "]";
  return out;
}

BatPtr MakeInt64Bat(const std::vector<int64_t>& values, Oid hseqbase) {
  auto b = std::make_shared<Bat>(DataType::kInt64, hseqbase);
  for (int64_t v : values) b->AppendInt64(v);
  return b;
}

BatPtr MakeDoubleBat(const std::vector<double>& values, Oid hseqbase) {
  auto b = std::make_shared<Bat>(DataType::kDouble, hseqbase);
  for (double v : values) b->AppendDouble(v);
  return b;
}

BatPtr MakeStringBat(const std::vector<std::string>& values, Oid hseqbase) {
  auto b = std::make_shared<Bat>(DataType::kString, hseqbase);
  for (const auto& v : values) b->AppendString(v);
  return b;
}

BatPtr MakeBoolBat(const std::vector<bool>& values, Oid hseqbase) {
  auto b = std::make_shared<Bat>(DataType::kBool, hseqbase);
  for (bool v : values) b->AppendBool(v);
  return b;
}

}  // namespace datacell
