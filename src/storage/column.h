// Typed in-memory columns. Storage is columnar and rids index directly into
// these arrays (paper Section 3.1). Operators filter or probe first, which
// yields rid lists (for a selection, its backward lineage), then materialize
// their output column-at-a-time with Gather: one typed loop per column into
// an output range sized once up front.
#ifndef SMOKE_STORAGE_COLUMN_H_
#define SMOKE_STORAGE_COLUMN_H_

#include <iterator>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/types.h"

namespace smoke {

/// \brief A typed column: exactly one of the three payload vectors is active,
/// selected by type(). Accessors are unchecked in release builds — hot loops
/// fetch the concrete vector once and index it by rid.
class Column {
 public:
  explicit Column(DataType type) : type_(type) {}

  DataType type() const { return type_; }

  size_t size() const {
    switch (type_) {
      case DataType::kInt64:   return ints_.size();
      case DataType::kFloat64: return doubles_.size();
      case DataType::kString:  return strings_.size();
    }
    return 0;
  }

  // Typed payload access (hot paths).
  const std::vector<int64_t>& ints() const {
    SMOKE_DCHECK(type_ == DataType::kInt64);
    return ints_;
  }
  const std::vector<double>& doubles() const {
    SMOKE_DCHECK(type_ == DataType::kFloat64);
    return doubles_;
  }
  const std::vector<std::string>& strings() const {
    SMOKE_DCHECK(type_ == DataType::kString);
    return strings_;
  }
  std::vector<int64_t>& mutable_ints() {
    SMOKE_DCHECK(type_ == DataType::kInt64);
    return ints_;
  }
  std::vector<double>& mutable_doubles() {
    SMOKE_DCHECK(type_ == DataType::kFloat64);
    return doubles_;
  }
  std::vector<std::string>& mutable_strings() {
    SMOKE_DCHECK(type_ == DataType::kString);
    return strings_;
  }

  // Generic appends (build paths, not hot).
  void AppendInt(int64_t v) { ints_.push_back(v); }
  void AppendDouble(double v) { doubles_.push_back(v); }
  void AppendString(std::string v) { strings_.push_back(std::move(v)); }
  void AppendValue(const Value& v) {
    switch (type_) {
      case DataType::kInt64:   ints_.push_back(std::get<int64_t>(v)); break;
      case DataType::kFloat64: doubles_.push_back(std::get<double>(v)); break;
      case DataType::kString:  strings_.push_back(std::get<std::string>(v));
                               break;
    }
  }

  /// Copies row `rid` of `src` onto the end of this column.
  void AppendFrom(const Column& src, rid_t rid) {
    SMOKE_DCHECK(type_ == src.type_);
    switch (type_) {
      case DataType::kInt64:   ints_.push_back(src.ints_[rid]); break;
      case DataType::kFloat64: doubles_.push_back(src.doubles_[rid]); break;
      case DataType::kString:  strings_.push_back(src.strings_[rid]); break;
    }
  }

  /// Appends all of `src`'s values (bulk table append; vector range insert,
  /// not per-row copies). Strings are moved out of `src`.
  void AppendAll(Column&& src) {
    SMOKE_DCHECK(type_ == src.type_);
    switch (type_) {
      case DataType::kInt64:
        ints_.insert(ints_.end(), src.ints_.begin(), src.ints_.end());
        break;
      case DataType::kFloat64:
        doubles_.insert(doubles_.end(), src.doubles_.begin(),
                        src.doubles_.end());
        break;
      case DataType::kString:
        strings_.insert(strings_.end(),
                        std::make_move_iterator(src.strings_.begin()),
                        std::make_move_iterator(src.strings_.end()));
        break;
    }
  }

  /// Column-at-a-time gather: writes row rids[i] of `src` to row
  /// dst_begin + i for i in [0, count). Rows [dst_begin, dst_begin + count)
  /// must already exist (Resize), so morsels filling disjoint ranges of one
  /// column may run concurrently.
  void Gather(const Column& src, const rid_t* rids, size_t count,
              size_t dst_begin) {
    SMOKE_DCHECK(type_ == src.type_);
    SMOKE_DCHECK(dst_begin + count <= size());
    switch (type_) {
      case DataType::kInt64:
        GatherTyped(src.ints_.data(), rids, count, ints_.data() + dst_begin);
        break;
      case DataType::kFloat64:
        GatherTyped(src.doubles_.data(), rids, count,
                    doubles_.data() + dst_begin);
        break;
      case DataType::kString:
        GatherTyped(src.strings_.data(), rids, count,
                    strings_.data() + dst_begin);
        break;
    }
  }

  Value GetValue(rid_t rid) const {
    switch (type_) {
      case DataType::kInt64:   return Value(ints_[rid]);
      case DataType::kFloat64: return Value(doubles_[rid]);
      case DataType::kString:  return Value(strings_[rid]);
    }
    return Value(int64_t{0});
  }

  void Reserve(size_t n) {
    switch (type_) {
      case DataType::kInt64:   ints_.reserve(n); break;
      case DataType::kFloat64: doubles_.reserve(n); break;
      case DataType::kString:  strings_.reserve(n); break;
    }
  }

  /// Sets the row count to `n`; new rows hold 0 / "" until a Gather fills
  /// them.
  void Resize(size_t n) {
    switch (type_) {
      case DataType::kInt64:   ints_.resize(n); break;
      case DataType::kFloat64: doubles_.resize(n); break;
      case DataType::kString:  strings_.resize(n); break;
    }
  }

  size_t MemoryBytes() const {
    switch (type_) {
      case DataType::kInt64:   return ints_.capacity() * sizeof(int64_t);
      case DataType::kFloat64: return doubles_.capacity() * sizeof(double);
      case DataType::kString: {
        size_t b = strings_.capacity() * sizeof(std::string);
        for (const auto& s : strings_) b += s.capacity();
        return b;
      }
    }
    return 0;
  }

 private:
  template <typename T>
  static void GatherTyped(const T* src, const rid_t* rids, size_t count,
                          T* dst) {
    for (size_t i = 0; i < count; ++i) dst[i] = src[rids[i]];
  }

  DataType type_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
};

}  // namespace smoke

#endif  // SMOKE_STORAGE_COLUMN_H_
