#ifndef DATACELL_ADAPTERS_CSV_H_
#define DATACELL_ADAPTERS_CSV_H_

#include <string>
#include <string_view>

#include "adapters/text_block.h"
#include "common/result.h"
#include "storage/column_batch.h"
#include "storage/schema.h"
#include "storage/types.h"

namespace datacell {

/// Textual flat-tuple codec: comma-separated values, one tuple per line.
/// Strings containing commas, quotes or newlines are double-quoted with ""
/// as the quote escape. An empty unquoted field is null.
std::string FormatCsvRow(const Row& row);

/// Parses `line` into a typed tuple matching `schema` exactly (arity and
/// types are validated — the receptor's "validate their structure" duty).
/// The general parser: ParseCsvLines hands it every line holding a '"', and
/// the CSV fuzz harness checks ParseCsvLines against it.
Result<Row> ParseCsvRow(std::string_view line, const Schema& schema);

/// What one ParseCsvLines call did with its lines.
struct CsvParseReport {
  size_t rejected = 0;  // malformed lines, dropped
  Status first_error;   // why the first of them was rejected
};

/// Parses lines [first, last) of `block` straight into `batch`'s typed
/// columns (one row per valid line, matching batch->schema() positionally).
/// The schema is compiled once per call; each line is then walked once,
/// fusing the delimiter scan with the field parse. Int64/timestamp fields of
/// at most 18 digits and double fields of the form [-]digits[.digits] with
/// at most 15 digits are read in that walk (the double as an exact
/// m / 10^k, so bitwise equal to from_chars). Every other field goes
/// through the general per-field code, and a line holding a '"' through
/// ParseCsvRow, so acceptance and values are ParseCsvRow's. A malformed line
/// leaves no partial row behind.
CsvParseReport ParseCsvLines(const TextBlock& block, size_t first, size_t last,
                             ColumnBatch* batch);

/// ParseCsvLines for one line; on error the batch is left unchanged.
Status AppendCsvToColumns(std::string_view line, ColumnBatch* batch);

/// Formats row `row` of `batch` into `out` (cleared first), byte-identical
/// to FormatCsvRow on the equivalent Row — the replayer's columnar egress:
/// values stream from the typed buffers into the line with no Value boxing.
void FormatCsvLine(const ColumnBatch& batch, size_t row, std::string* out);

}  // namespace datacell

#endif  // DATACELL_ADAPTERS_CSV_H_
