// Group-by push-down (paper Section 4.2): during lineage capture, partition
// each output group's lineage by additional grouping attributes and maintain
// incremental aggregation state per (group, sub-key) — an online partial
// data cube that piggy-backs on the base query's table scan. Lineage
// consuming queries that only add grouping attributes become lookups.
//
// Supports algebraic/distributive functions (SUM, COUNT, AVG, MIN, MAX),
// like the data-cube literature the paper builds on.
#ifndef SMOKE_CAPTURE_CUBE_INDEX_H_
#define SMOKE_CAPTURE_CUBE_INDEX_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "engine/aggregates.h"
#include "storage/table.h"

namespace smoke {

/// \brief Per-output-group sub-aggregates keyed by extra grouping columns.
class CubeIndex {
 public:
  CubeIndex() = default;

  /// Binds to the fact table; `sub_cols` are the push-down grouping columns
  /// and `aggs` the aggregates to materialize per (group, sub-key).
  void Init(const Table& fact, std::vector<int> sub_cols,
            std::vector<AggSpec> aggs);

  bool enabled() const { return enabled_; }
  const AggLayout& layout() const { return layout_; }
  size_t num_groups() const { return states_.size(); }

  /// Registers output group `g` (groups must be added densely in order).
  void AddGroup();

  /// Folds fact row `rid` into group `g`'s cube.
  void Update(uint32_t g, rid_t rid);

  /// Materializes group `g`'s cube as a relation: the sub-key columns
  /// followed by the finalized aggregates. Row order follows sub-key
  /// first-encounter order.
  Table GroupTable(uint32_t g) const;

  size_t MemoryBytes() const;

 private:
  /// The sub-key of `rid` on the int fast path.
  int64_t IntKey(rid_t rid) const { return int_col_[rid]; }

  bool enabled_ = false;
  const Table* fact_ = nullptr;
  std::vector<int> sub_cols_;
  AggLayout layout_;
  size_t stride_ = 0;
  bool int_key_ = false;
  const int64_t* int_col_ = nullptr;

  // Per group: sub-key -> cell index; cell states are flattened per group.
  std::vector<std::unordered_map<int64_t, uint32_t>> int_maps_;
  std::vector<std::unordered_map<std::string, uint32_t>> str_maps_;
  std::vector<std::vector<double>> states_;
  std::vector<std::vector<rid_t>> cell_first_rid_;  // for key materialization
  std::string key_buf_;  // composite sub-key encode buffer, reused per row
};

}  // namespace smoke

#endif  // SMOKE_CAPTURE_CUBE_INDEX_H_
