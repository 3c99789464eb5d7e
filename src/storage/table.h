// In-memory relations.
#ifndef SMOKE_STORAGE_TABLE_H_
#define SMOKE_STORAGE_TABLE_H_

#include <initializer_list>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/types.h"
#include "storage/column.h"
#include "storage/schema.h"

namespace smoke {

/// \brief An in-memory relation: a schema plus one Column per field.
///
/// Rows are addressed by rid in [0, num_rows()). Lineage indexes store rids;
/// dereferencing lineage is a direct array index into these columns.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema) : schema_(std::move(schema)) {
    for (const auto& f : schema_.fields()) columns_.emplace_back(f.type);
  }

  const Schema& schema() const { return schema_; }
  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const {
    return columns_.empty() ? 0 : columns_[0].size();
  }

  const Column& column(size_t i) const {
    SMOKE_DCHECK(i < columns_.size());
    return columns_[i];
  }
  Column& mutable_column(size_t i) {
    SMOKE_DCHECK(i < columns_.size());
    return columns_[i];
  }

  /// Column lookup by name; aborts if absent (schema errors are programming
  /// errors at this layer — the Catalog validates user input).
  const Column& column(const std::string& name) const {
    int i = schema_.IndexOf(name);
    SMOKE_CHECK(i >= 0);
    return columns_[static_cast<size_t>(i)];
  }
  int ColumnIndex(const std::string& name) const {
    return schema_.IndexOf(name);
  }

  /// Appends a full row given as values in schema order (test/build paths).
  void AppendRow(std::initializer_list<Value> values) {
    SMOKE_DCHECK(values.size() == columns_.size());
    size_t i = 0;
    for (const auto& v : values) columns_[i++].AppendValue(v);
  }

  /// Copies row `rid` of `src` (which must share this schema suffix starting
  /// at column `dst_offset`) onto the end of this table's columns.
  void AppendRowFrom(const Table& src, rid_t rid, size_t dst_offset = 0) {
    for (size_t c = 0; c < src.num_columns(); ++c) {
      columns_[dst_offset + c].AppendFrom(src.column(c), rid);
    }
  }

  /// Appends all rows of `src` (same schema), moving its payloads.
  void AppendAllRows(Table&& src) {
    SMOKE_DCHECK(src.num_columns() == columns_.size());
    for (size_t c = 0; c < columns_.size(); ++c) {
      columns_[c].AppendAll(std::move(src.columns_[c]));
    }
  }

  /// Gathers rows rids[0..count) of `src` into rows [dst_row, dst_row +
  /// count) of this table's columns [dst_col, dst_col + src.num_columns()),
  /// one column at a time (Column::Gather). The rows must already exist
  /// (Resize); disjoint row ranges may be gathered concurrently.
  void GatherRows(const Table& src, const rid_t* rids, size_t count,
                  size_t dst_row, size_t dst_col = 0) {
    SMOKE_DCHECK(dst_col + src.num_columns() <= columns_.size());
    for (size_t c = 0; c < src.num_columns(); ++c) {
      columns_[dst_col + c].Gather(src.column(c), rids, count, dst_row);
    }
  }

  Value GetValue(rid_t rid, size_t col) const {
    return columns_[col].GetValue(rid);
  }

  void Reserve(size_t n) {
    for (auto& c : columns_) c.Reserve(n);
  }

  /// Sets every column's row count to `n` (the gather target size).
  void Resize(size_t n) {
    for (auto& c : columns_) c.Resize(n);
  }

  size_t MemoryBytes() const {
    size_t b = 0;
    for (const auto& c : columns_) b += c.MemoryBytes();
    return b;
  }

  /// Renders the first `limit` rows for debugging and examples.
  std::string ToString(size_t limit = 10) const;

 private:
  Schema schema_;
  std::vector<Column> columns_;
};

}  // namespace smoke

#endif  // SMOKE_STORAGE_TABLE_H_
