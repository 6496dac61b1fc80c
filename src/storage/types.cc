#include "storage/types.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"
#include "common/string_util.h"

namespace datacell {

const char* DataTypeToString(DataType t) {
  switch (t) {
    case DataType::kBool:
      return "bool";
    case DataType::kInt64:
      return "int64";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "string";
    case DataType::kTimestamp:
      return "timestamp";
  }
  return "unknown";
}

Result<DataType> DataTypeFromString(std::string_view name) {
  std::string n = ToLower(Trim(name));
  if (n == "int" || n == "integer" || n == "bigint" || n == "int64" ||
      n == "smallint" || n == "tinyint") {
    return DataType::kInt64;
  }
  if (n == "double" || n == "float" || n == "real" || n == "decimal" ||
      n == "numeric") {
    return DataType::kDouble;
  }
  if (n == "varchar" || n == "char" || n == "text" || n == "string" ||
      n == "clob") {
    return DataType::kString;
  }
  if (n == "timestamp" || n == "time" || n == "date") {
    return DataType::kTimestamp;
  }
  if (n == "bool" || n == "boolean") {
    return DataType::kBool;
  }
  return Status::ParseError("unknown type name: '" + std::string(name) + "'");
}

double Value::AsDouble() const {
  if (std::holds_alternative<int64_t>(v_)) {
    return static_cast<double>(std::get<int64_t>(v_));
  }
  if (std::holds_alternative<double>(v_)) return std::get<double>(v_);
  if (std::holds_alternative<bool>(v_)) return std::get<bool>(v_) ? 1.0 : 0.0;
  DC_CHECK(false);
  return 0.0;
}

DataType Value::type() const {
  DC_CHECK(!is_null());
  if (is_bool()) return DataType::kBool;
  if (is_timestamp()) return DataType::kTimestamp;
  if (std::holds_alternative<int64_t>(v_)) return DataType::kInt64;
  if (is_double()) return DataType::kDouble;
  return DataType::kString;
}

std::string Value::ToString() const {
  if (is_null()) return "";
  if (is_bool()) return bool_value() ? "true" : "false";
  if (std::holds_alternative<int64_t>(v_)) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(std::get<int64_t>(v_)));
    return buf;
  }
  if (is_double()) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf),
                                          double_value()).ptr);
  }
  return string_value();
}

Result<Value> Value::FromString(std::string_view text, DataType t) {
  if (t != DataType::kString && Trim(text).empty()) return Value::Null();
  switch (t) {
    case DataType::kBool: {
      std::string lower = ToLower(Trim(text));
      if (lower == "true" || lower == "1" || lower == "t") return Value::Bool(true);
      if (lower == "false" || lower == "0" || lower == "f") return Value::Bool(false);
      return Status::ParseError("invalid bool literal: '" + std::string(text) + "'");
    }
    case DataType::kInt64: {
      DC_ASSIGN_OR_RETURN(int64_t v, ParseInt64(text));
      return Value::Int64(v);
    }
    case DataType::kTimestamp: {
      DC_ASSIGN_OR_RETURN(int64_t v, ParseInt64(text));
      return Value::TimestampVal(v);
    }
    case DataType::kDouble: {
      DC_ASSIGN_OR_RETURN(double v, ParseDouble(text));
      return Value::Double(v);
    }
    case DataType::kString:
      return Value::String(std::string(text));
  }
  return Status::Internal("unreachable type");
}

Status CheckValueType(const Value& v, DataType t) {
  if (v.is_null()) return Status::OK();
  switch (t) {
    case DataType::kInt64:
      if (v.is_int64()) return Status::OK();
      break;
    case DataType::kTimestamp:
      if (v.is_timestamp() || v.is_int64()) return Status::OK();
      break;
    case DataType::kDouble:
      if (v.is_double() || v.is_int64()) return Status::OK();
      break;
    case DataType::kBool:
      if (v.is_bool()) return Status::OK();
      break;
    case DataType::kString:
      if (v.is_string()) return Status::OK();
      break;
  }
  return Status::TypeError(std::string("value of type ") +
                           DataTypeToString(v.type()) +
                           " not storable in column of type " +
                           DataTypeToString(t));
}

bool operator==(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_string() != b.is_string()) return false;
  if (a.is_string()) return a.string_value() == b.string_value();
  if (a.is_bool() && b.is_bool()) return a.bool_value() == b.bool_value();
  return a.AsDouble() == b.AsDouble();
}

bool operator<(const Value& a, const Value& b) {
  if (a.is_null()) return !b.is_null();  // null sorts first
  if (b.is_null()) return false;
  if (a.is_string() && b.is_string()) return a.string_value() < b.string_value();
  if (a.is_string() != b.is_string()) {
    // Heterogeneous comparison only arises in sorting mixed test data; order
    // numerics before strings deterministically.
    return !a.is_string();
  }
  return a.AsDouble() < b.AsDouble();
}

}  // namespace datacell
