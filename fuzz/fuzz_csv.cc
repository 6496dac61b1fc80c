// Fuzz harness for the receptor ingest path: CSV line splitting and typed
// row parsing (adapters/csv.{h,cc}). This is the engine's primary untrusted
// input surface — every byte a receptor reads off a channel goes through
// ParseCsvRow before touching a basket.
//
// Built two ways (see fuzz/CMakeLists.txt):
//   - with clang: a real libFuzzer target (-fsanitize=fuzzer,address)
//   - elsewhere: linked against the standalone replay/mutation driver, so
//     the same harness still runs as a ctest smoke on a gcc-only box.
//
// The harness asserts parser *contracts*, not just absence-of-crash: a
// successful parse yields exactly one value per schema field, with each
// value either null or of the schema's type; a failed parse yields a
// ParseError status, never any other kind.
//
// It also holds the receptor's one-pass block parser (ParseCsvLines) to the
// reference ParseCsvRow: the input, framed into a TextBlock as PushBlock
// frames it, is parsed line by line by both, and they must agree on every
// line's acceptance and on every accepted value (doubles bitwise, nulls as
// nulls, strings byte-exact). A whole-block parse must accept the same
// lines in the same order.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <vector>

#include "adapters/csv.h"
#include "storage/table.h"

namespace {

using datacell::DataType;
using datacell::Row;
using datacell::Schema;
using datacell::Value;

const Schema& NumericSchema() {
  static const Schema* s = new Schema({{"i", DataType::kInt64},
                                       {"d", DataType::kDouble},
                                       {"t", DataType::kTimestamp}});
  return *s;
}

const Schema& MixedSchema() {
  static const Schema* s = new Schema({{"i", DataType::kInt64},
                                       {"f", DataType::kDouble},
                                       {"b", DataType::kBool},
                                       {"s", DataType::kString}});
  return *s;
}

const Schema& StringsSchema() {
  static const Schema* s =
      new Schema({{"a", DataType::kString}, {"b", DataType::kString}});
  return *s;
}

void Check(bool cond, const char* what) {
  if (cond) return;
  std::fprintf(stderr, "fuzz_csv contract violated: %s\n", what);
  std::abort();
}

void ExerciseSchema(std::string_view line, const Schema& schema) {
  datacell::Result<Row> parsed = datacell::ParseCsvRow(line, schema);
  if (!parsed.ok()) {
    Check(parsed.status().code() == datacell::StatusCode::kParseError,
          "rejection must be a ParseError");
    return;
  }
  Check(parsed->size() == schema.num_fields(),
        "accepted row arity must match schema");
  for (size_t i = 0; i < parsed->size(); ++i) {
    const Value& v = (*parsed)[i];
    if (v.is_null()) continue;
    switch (schema.field(i).type) {
      case DataType::kInt64:
        Check(v.is_int64(), "int field holds non-int");
        break;
      case DataType::kDouble:
        Check(v.is_double(), "float field holds non-float");
        break;
      case DataType::kBool:
        Check(v.is_bool(), "bool field holds non-bool");
        break;
      case DataType::kString:
        Check(v.is_string(), "string field holds non-string");
        break;
      default:
        break;
    }
  }
  // Round-trip: a row we accepted must re-format and re-parse to the same
  // arity (formatting quotes whatever needs quoting).
  std::string formatted = datacell::FormatCsvRow(*parsed);
  datacell::Result<Row> again = datacell::ParseCsvRow(formatted, schema);
  Check(again.ok(), "formatted accepted row must re-parse");
  Check(again->size() == parsed->size(), "round-trip changed arity");
}

bool SameValue(const datacell::Bat& col, size_t row, const Value& v) {
  if (col.IsNull(row) != v.is_null()) return false;
  if (v.is_null()) return true;
  switch (col.type()) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      return col.Int64At(row) == v.int64_value();
    case DataType::kDouble: {
      double got = col.DoubleAt(row);
      double want = v.double_value();
      return std::memcmp(&got, &want, sizeof(double)) == 0;
    }
    case DataType::kBool:
      return col.BoolAt(row) == v.bool_value();
    case DataType::kString:
      return col.StringAt(row) == v.string_value();
  }
  return false;
}

// ParseCsvLines against ParseCsvRow, line by line, then the whole block.
void CompareBlockParser(const datacell::TextBlock& block,
                        const std::vector<std::string_view>& lines,
                        const Schema& schema) {
  datacell::ColumnBatch batch(schema);
  size_t accepted = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    datacell::Result<Row> want = datacell::ParseCsvRow(lines[i], schema);
    size_t before = batch.num_rows();
    datacell::CsvParseReport report =
        datacell::ParseCsvLines(block, i, i + 1, &batch);
    Check(report.rejected == (want.ok() ? 0u : 1u),
          "block parser and ParseCsvRow disagree on acceptance");
    Check(batch.num_rows() == before + (want.ok() ? 1 : 0),
          "block parser appended a row it did not accept");
    if (!want.ok()) {
      Check(!report.first_error.ok(), "rejection must carry a reason");
      continue;
    }
    ++accepted;
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      Check(SameValue(batch.column(c), before, (*want)[c]),
            "block parser and ParseCsvRow disagree on a value");
    }
  }
  datacell::ColumnBatch whole(schema);
  datacell::CsvParseReport report =
      datacell::ParseCsvLines(block, 0, block.size(), &whole);
  Check(whole.num_rows() == accepted &&
            report.rejected == lines.size() - accepted,
        "whole-block parse differs from the per-line parses");
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    for (size_t r = 0; r < accepted; ++r) {
      Check(SameValue(whole.column(c), r, batch.column(c).GetValue(r)),
            "whole-block parse differs from the per-line parses");
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view input(reinterpret_cast<const char*>(data), size);
  // Each input is treated as a batch of lines, as a receptor would see it.
  std::vector<std::string_view> lines;
  for (std::string_view rest = input; !rest.empty();) {
    size_t nl = rest.find('\n');
    std::string_view line =
        nl == std::string_view::npos ? rest : rest.substr(0, nl);
    lines.push_back(line);
    ExerciseSchema(line, MixedSchema());
    ExerciseSchema(line, StringsSchema());
    if (nl == std::string_view::npos) break;
    rest.remove_prefix(nl + 1);
  }
  // The same lines, framed the way Channel::PushBlock frames them.
  datacell::TextBlock block;
  block.AppendFramed(input);
  Check(block.size() == lines.size(), "framing changed the line count");
  for (size_t i = 0; i < lines.size(); ++i) {
    Check(block.line(i) == lines[i], "framing changed a line");
  }
  CompareBlockParser(block, lines, MixedSchema());
  CompareBlockParser(block, lines, StringsSchema());
  CompareBlockParser(block, lines, NumericSchema());
  return 0;
}
