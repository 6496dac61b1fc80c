#ifndef DATACELL_STORAGE_TYPES_H_
#define DATACELL_STORAGE_TYPES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/result.h"

namespace datacell {

/// Dense object identifier: the virtual head of a BAT. Oids identify the
/// relational tuple an attribute value belongs to; all attribute values of a
/// single tuple carry the same oid across a table's BATs.
using Oid = uint64_t;

/// Column types supported by the kernel. Timestamps are microseconds since
/// epoch, stored as int64 (see common/clock.h).
enum class DataType : uint8_t {
  kBool = 0,
  kInt64 = 1,
  kDouble = 2,
  kString = 3,
  kTimestamp = 4,
};

/// Stable lower-case name, e.g. "int64".
const char* DataTypeToString(DataType t);

/// Parses a SQL type name ("int"/"bigint"/"double"/"float"/"varchar"/
/// "text"/"string"/"timestamp"/"bool"/"boolean"); case-insensitive.
Result<DataType> DataTypeFromString(std::string_view name);

/// Whether values of `t` are stored as int64 internally.
inline bool IsIntegerBacked(DataType t) {
  return t == DataType::kInt64 || t == DataType::kTimestamp;
}

inline bool IsNumeric(DataType t) {
  return t == DataType::kInt64 || t == DataType::kDouble ||
         t == DataType::kTimestamp;
}

/// A single attribute value, used at the system periphery (parsing, result
/// delivery, tests). The bulk operators never work on `Value`s; they work on
/// typed column vectors.
class Value {
 public:
  Value() : v_(std::monostate{}) {}
  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(Repr(b)); }
  static Value Int64(int64_t i) { return Value(Repr(i)); }
  static Value Double(double d) { return Value(Repr(d)); }
  static Value String(std::string s) { return Value(Repr(std::move(s))); }
  static Value TimestampVal(int64_t us) {
    Value v{Repr{us}};
    v.is_timestamp_ = true;
    return v;
  }

  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_int64() const {
    return std::holds_alternative<int64_t>(v_) && !is_timestamp_;
  }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_timestamp() const {
    return std::holds_alternative<int64_t>(v_) && is_timestamp_;
  }

  bool bool_value() const { return std::get<bool>(v_); }
  int64_t int64_value() const { return std::get<int64_t>(v_); }
  double double_value() const { return std::get<double>(v_); }
  const std::string& string_value() const { return std::get<std::string>(v_); }

  /// Numeric coercion used by the expression evaluator: int64/timestamp and
  /// double all read as double; anything else aborts.
  double AsDouble() const;

  /// The DataType this value carries; null has no type and aborts.
  DataType type() const;

  /// Renders for the textual tuple interchange format (CSV): null -> "",
  /// bool -> "true"/"false", integers in decimal, doubles as the shortest
  /// text that parses back to the same value, strings verbatim.
  std::string ToString() const;

  /// Parses `text` as a value of type `t`. Empty text yields null.
  static Result<Value> FromString(std::string_view text, DataType t);

  /// SQL comparison. Null compares equal to null and less than everything
  /// else (total order for sorting); cross numeric types compare as double.
  friend bool operator==(const Value& a, const Value& b);
  friend bool operator<(const Value& a, const Value& b);
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

 private:
  using Repr = std::variant<std::monostate, bool, int64_t, double, std::string>;
  explicit Value(Repr v) : v_(std::move(v)) {}

  Repr v_;
  bool is_timestamp_ = false;
};

/// A flat tuple at the periphery (receptor input, emitter output).
using Row = std::vector<Value>;

/// OK when `v` (non-null) can be stored in a column of type `t`
/// (int64 widens to double; int64 accepted as timestamp).
Status CheckValueType(const Value& v, DataType t);

/// Boolean form of CheckValueType for hot ingest paths: no Status is
/// constructed on the (overwhelmingly common) success case. Callers build
/// the detailed error via CheckValueType only after this returns false.
inline bool ValueMatchesType(const Value& v, DataType t) {
  if (v.is_null()) return true;
  switch (t) {
    case DataType::kInt64:
      return v.is_int64();
    case DataType::kTimestamp:
      return v.is_timestamp() || v.is_int64();
    case DataType::kDouble:
      return v.is_double() || v.is_int64();
    case DataType::kBool:
      return v.is_bool();
    case DataType::kString:
      return v.is_string();
  }
  return false;
}

}  // namespace datacell

#endif  // DATACELL_STORAGE_TYPES_H_
