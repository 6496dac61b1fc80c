#include "storage/column_batch.h"

#include "common/check.h"

namespace datacell {

void ColumnBatch::Reset(const Schema& schema) {
  schema_ = schema;
  columns_.clear();
  columns_.reserve(schema_.num_fields());
  for (const Field& f : schema_.fields()) {
    columns_.emplace_back(f.type);
  }
}

void ColumnBatch::Clear() {
  for (Bat& col : columns_) col.Truncate(0);
}

void ColumnBatch::TruncateTo(size_t num_rows) {
  for (Bat& col : columns_) col.Truncate(num_rows);
}

Status ColumnBatch::CheckRows(const Schema& schema,
                              const std::vector<Row>& rows) {
  const size_t cols = schema.num_fields();
  for (const Row& r : rows) {
    if (r.size() != cols) {
      return Status::InvalidArgument("tuple arity " + std::to_string(r.size()) +
                                     " does not match arity " +
                                     std::to_string(cols));
    }
    for (size_t c = 0; c < cols; ++c) {
      const Field& f = schema.field(c);
      if (!ValueMatchesType(r[c], f.type)) {
        return Status::TypeError("column '" + f.name +
                                 "': " + CheckValueType(r[c], f.type).message());
      }
    }
  }
  return Status::OK();
}

Status ColumnBatch::AppendRows(const std::vector<Row>& rows) {
  DC_RETURN_NOT_OK(CheckRows(schema_, rows));
  for (const Row& r : rows) AppendRowUnchecked(r);
  return Status::OK();
}

void ColumnBatch::AppendRowUnchecked(const Row& row) {
  DC_DCHECK_EQ(row.size(), columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].AppendValueUnchecked(row[c]);
  }
}

bool ColumnBatch::MatchesSchema(const Schema& other_schema) const {
  if (other_schema.num_fields() != columns_.size()) return false;
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (other_schema.field(c).type != columns_[c].type()) return false;
  }
  return true;
}

size_t ColumnBatch::MemoryUsage() const {
  size_t bytes = 0;
  for (const Bat& col : columns_) bytes += col.MemoryUsage();
  return bytes;
}

}  // namespace datacell
