#include "adapters/csv.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>

#include "common/check.h"
#include "common/string_util.h"

namespace datacell {

namespace {

bool NeedsQuoting(const std::string& s) {
  if (s.empty()) return true;  // distinguish empty string from null
  for (char c : s) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

void AppendField(const Value& v, std::string* out) {
  if (v.is_null()) return;  // empty field = null
  if (v.is_string()) {
    const std::string& s = v.string_value();
    if (!NeedsQuoting(s)) {
      *out += s;
      return;
    }
    out->push_back('"');
    for (char c : s) {
      if (c == '"') out->push_back('"');
      out->push_back(c);
    }
    out->push_back('"');
    return;
  }
  *out += v.ToString();
}

/// One field of a quote-free line, appended straight into its typed column.
/// Mirrors Value::FromString + Bat::AppendValue exactly: empty (or, for
/// non-strings, whitespace-only) fields are null; bools accept the
/// true/false/t/f/1/0 forms; integers via ParseInt64; doubles via from_chars
/// with ParseDouble as the semantic fallback (strtod accepts a superset —
/// hex floats, leading '+', inf/nan — that from_chars rejects).
Status AppendCsvField(std::string_view field, Bat& col) {
  if (col.type() == DataType::kString) {
    if (field.empty()) {
      col.AppendNull();  // unquoted empty = null, as in ParseCsvRow
      return Status::OK();
    }
    col.AppendString(std::string(field));
    return Status::OK();
  }
  std::string_view t = Trim(field);
  if (t.empty()) {
    col.AppendNull();
    return Status::OK();
  }
  switch (col.type()) {
    case DataType::kInt64:
    case DataType::kTimestamp: {
      DC_ASSIGN_OR_RETURN(int64_t v, ParseInt64(t));
      col.AppendInt64(v);
      return Status::OK();
    }
    case DataType::kDouble: {
      double v = 0.0;
      auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
      if (ec != std::errc() || ptr != t.data() + t.size()) {
        DC_ASSIGN_OR_RETURN(v, ParseDouble(t));
      }
      col.AppendDouble(v);
      return Status::OK();
    }
    case DataType::kBool: {
      if (EqualsIgnoreCase(t, "true") || EqualsIgnoreCase(t, "1") ||
          EqualsIgnoreCase(t, "t")) {
        col.AppendBool(true);
        return Status::OK();
      }
      if (EqualsIgnoreCase(t, "false") || EqualsIgnoreCase(t, "0") ||
          EqualsIgnoreCase(t, "f")) {
        col.AppendBool(false);
        return Status::OK();
      }
      return Status::ParseError("invalid bool literal: '" + std::string(field) +
                                "'");
    }
    case DataType::kString:
      break;  // handled above
  }
  return Status::Internal("unreachable type");
}

Status ArityError(size_t got, size_t want) {
  return Status::ParseError("tuple arity " + std::to_string(got) +
                            " does not match schema arity " +
                            std::to_string(want));
}

// One field of a split line. Quotedness is kept beside the text: a quoted
// empty field is an empty string, an unquoted one is null.
struct CsvField {
  std::string text;
  bool quoted = false;
};

Result<std::vector<CsvField>> SplitCsvLine(std::string_view line) {
  std::vector<CsvField> fields;
  CsvField cur;
  bool in_quotes = false;
  size_t i = 0;
  while (i < line.size()) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur.text.push_back('"');
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      cur.text.push_back(c);
      ++i;
      continue;
    }
    if (c == '"' && cur.text.empty()) {
      in_quotes = true;
      cur.quoted = true;
      ++i;
      continue;
    }
    if (c == ',') {
      fields.push_back(std::move(cur));
      cur = CsvField();
      ++i;
      continue;
    }
    cur.text.push_back(c);
    ++i;
  }
  if (in_quotes) {
    return Status::ParseError("unterminated quote in CSV line");
  }
  fields.push_back(std::move(cur));
  return fields;
}

// --- the one-pass line parser -------------------------------------------

enum class FieldKind : uint8_t { kInt, kDouble, kOther };

// The compiled schema: each column's target BAT and FieldKind. Columns past
// the first kCompiledColumns take the per-field path, which keeps the plan
// on the stack (no allocation per call).
constexpr size_t kCompiledColumns = 64;

class LinePlan {
 public:
  explicit LinePlan(ColumnBatch* batch)
      : batch_(batch), columns_(batch->num_columns()) {
    for (size_t c = 0; c < std::min(columns_, kCompiledColumns); ++c) {
      Bat& col = batch->column(c);
      cols_[c] = &col;
      kinds_[c] = FieldKind::kOther;
      if (IsIntegerBacked(col.type())) kinds_[c] = FieldKind::kInt;
      if (col.type() == DataType::kDouble) kinds_[c] = FieldKind::kDouble;
    }
  }
  ColumnBatch* batch() const { return batch_; }
  size_t columns() const { return columns_; }
  FieldKind kind(size_t c) const {
    return c < kCompiledColumns ? kinds_[c] : FieldKind::kOther;
  }
  Bat& column(size_t c) const {
    return c < kCompiledColumns ? *cols_[c] : batch_->column(c);
  }

 private:
  ColumnBatch* batch_;
  size_t columns_;
  Bat* cols_[kCompiledColumns];
  FieldKind kinds_[kCompiledColumns];
};

inline bool IsDigit(char c) { return static_cast<unsigned char>(c - '0') < 10; }

// [-]digits with 1 to 18 digits, ending at ',' or `end`: it fits an int64,
// and ParseInt64 reads it the same. On success `p` moves past the digits.
inline bool ScanInt(const char*& p, const char* end, int64_t* out) {
  const char* q = p;
  const bool neg = q < end && *q == '-';
  q += neg;
  const char* digits = q;
  uint64_t v = 0;
  while (q < end && IsDigit(*q)) v = v * 10 + static_cast<unsigned>(*q++ - '0');
  const size_t n = static_cast<size_t>(q - digits);
  if (n == 0 || n > 18 || (q < end && *q != ',')) return false;
  *out = neg ? -static_cast<int64_t>(v) : static_cast<int64_t>(v);
  p = q;
  return true;
}

// Powers of ten up to the longest fast-path fraction; all exact doubles.
constexpr double kPow10[] = {1e0, 1e1, 1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
                             1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15};

// [-]digits[.digits] with at most 15 digits in all, ending at ',' or `end`.
// Both the digits read as an integer m and 10^k (k fraction digits) are
// then exact doubles, so m / 10^k is the correctly rounded value (Clinger's
// fast path): bitwise what from_chars and strtod return. On success `p`
// moves past it.
inline bool ScanDouble(const char*& p, const char* end, double* out) {
  const char* q = p;
  const bool neg = q < end && *q == '-';
  q += neg;
  uint64_t m = 0;
  const char* int_digits = q;
  while (q < end && IsDigit(*q)) m = m * 10 + static_cast<unsigned>(*q++ - '0');
  size_t digits = static_cast<size_t>(q - int_digits);
  size_t fraction = 0;
  if (digits > 0 && q < end && *q == '.') {
    const char* frac_digits = ++q;
    while (q < end && IsDigit(*q)) {
      m = m * 10 + static_cast<unsigned>(*q++ - '0');
    }
    fraction = static_cast<size_t>(q - frac_digits);
    if (fraction == 0) return false;
  }
  digits += fraction;
  if (digits == 0 || digits > 15 || (q < end && *q != ',')) return false;
  const double v = static_cast<double>(m) / kPow10[fraction];
  *out = neg ? -v : v;
  p = q;
  return true;
}

// One line into the batch. Fast forms first; a field they do not take goes
// to AppendCsvField, and a line with a '"' to ParseCsvRow — checked on every
// field the fast forms did not take and, before rejecting, on the whole
// line, so exactly the lines holding a '"' reach it.
Status ParseLine(std::string_view line, const LinePlan& plan) {
  ColumnBatch* batch = plan.batch();
  const size_t rollback = batch->num_rows();
  const char* p = line.data();
  const char* const end = p + line.size();
  bool quoted = false;
  size_t fields = 0;
  Status st;
  for (;;) {
    if (fields == plan.columns()) {
      // More fields than columns: count them for the message.
      size_t total = fields + 1 + static_cast<size_t>(std::count(p, end, ','));
      st = ArityError(total, plan.columns());
      break;
    }
    Bat& col = plan.column(fields);
    const FieldKind kind = plan.kind(fields);
    int64_t i;
    double d;
    if (kind == FieldKind::kInt && ScanInt(p, end, &i)) {
      col.AppendInt64(i);
    } else if (kind == FieldKind::kDouble && ScanDouble(p, end, &d)) {
      col.AppendDouble(d);
    } else {
      const void* comma = std::memchr(p, ',', static_cast<size_t>(end - p));
      const char* field_end = comma ? static_cast<const char*>(comma) : end;
      std::string_view field(p, static_cast<size_t>(field_end - p));
      if (field.find('"') != std::string_view::npos) {
        quoted = true;
        break;
      }
      st = AppendCsvField(field, col);
      if (!st.ok()) break;
      p = field_end;
    }
    ++fields;
    if (p == end) break;
    ++p;  // the ','
  }
  if (st.ok() && !quoted && fields != plan.columns()) {
    st = ArityError(fields, plan.columns());
  }
  if (st.ok() && !quoted) return st;
  batch->TruncateTo(rollback);
  if (quoted || line.find('"') != std::string_view::npos) {
    DC_ASSIGN_OR_RETURN(Row row, ParseCsvRow(line, batch->schema()));
    batch->AppendRowUnchecked(row);
    return Status::OK();
  }
  return st;
}

}  // namespace

CsvParseReport ParseCsvLines(const TextBlock& block, size_t first, size_t last,
                             ColumnBatch* batch) {
  DC_CHECK(batch != nullptr);
  DC_CHECK_LE(last, block.size());
  CsvParseReport report;
  const LinePlan plan(batch);
  for (size_t i = first; i < last; ++i) {
    Status st = ParseLine(block.line(i), plan);
    if (!st.ok() && report.rejected++ == 0) report.first_error = std::move(st);
  }
  return report;
}

Status AppendCsvToColumns(std::string_view line, ColumnBatch* batch) {
  DC_CHECK(batch != nullptr);
  return ParseLine(line, LinePlan(batch));
}

std::string FormatCsvRow(const Row& row) {
  std::string out;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendField(row[i], &out);
  }
  return out;
}

void FormatCsvLine(const ColumnBatch& batch, size_t row, std::string* out) {
  out->clear();
  // Numeric rendering matches Value::ToString exactly (%lld / shortest
  // round-trip to_chars), so a columnar-formatted line is byte-identical to
  // the row path's.
  char buf[32];
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    if (c > 0) out->push_back(',');
    const Bat& col = batch.column(c);
    if (col.IsNull(row)) continue;  // empty field = null
    switch (col.type()) {
      case DataType::kInt64:
      case DataType::kTimestamp:
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(col.Int64At(row)));
        *out += buf;
        break;
      case DataType::kDouble:
        out->append(buf,
                    std::to_chars(buf, buf + sizeof(buf), col.DoubleAt(row))
                        .ptr);
        break;
      case DataType::kBool:
        *out += col.BoolAt(row) ? "true" : "false";
        break;
      case DataType::kString: {
        const std::string& s = col.StringAt(row);
        if (!NeedsQuoting(s)) {
          *out += s;
          break;
        }
        out->push_back('"');
        for (char ch : s) {
          if (ch == '"') out->push_back('"');
          out->push_back(ch);
        }
        out->push_back('"');
        break;
      }
    }
  }
}

Result<Row> ParseCsvRow(std::string_view line, const Schema& schema) {
  DC_ASSIGN_OR_RETURN(std::vector<CsvField> fields, SplitCsvLine(line));
  if (fields.size() != schema.num_fields()) {
    return ArityError(fields.size(), schema.num_fields());
  }
  Row row;
  row.reserve(fields.size());
  for (size_t i = 0; i < fields.size(); ++i) {
    CsvField& f = fields[i];
    DataType t = schema.field(i).type;
    if (f.text.empty() && !f.quoted) {
      row.push_back(Value::Null());
      continue;
    }
    if (t == DataType::kString) {
      row.push_back(Value::String(std::move(f.text)));
      continue;
    }
    DC_ASSIGN_OR_RETURN(Value v, Value::FromString(f.text, t));
    row.push_back(std::move(v));
  }
  return row;
}

}  // namespace datacell
