#include "shard/sharded_table.h"

#include <algorithm>
#include <utility>

namespace smoke {

Status ShardedTable::Create(const Table* base, const ShardingSpec& spec,
                            ShardedTable* out) {
  if (base == nullptr) {
    return Status::InvalidArgument("sharded table needs a base table");
  }
  if (spec.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (spec.column < 0 ||
      static_cast<size_t>(spec.column) >= base->num_columns()) {
    return Status::InvalidArgument("sharding column out of range");
  }
  const Column& col = base->column(static_cast<size_t>(spec.column));
  if (col.type() != DataType::kInt64) {
    return Status::InvalidArgument(
        "sharding column must be int64 ('" +
        base->schema().field(static_cast<size_t>(spec.column)).name + "' is " +
        DataTypeName(col.type()) + ")");
  }

  const std::vector<int64_t>& vals = col.ints();
  const size_t n = vals.size();
  std::vector<uint32_t> assign(n, 0);
  if (spec.kind == ShardingSpec::Kind::kHash) {
    for (size_t i = 0; i < n; ++i) {
      assign[i] = ShardOfHash(vals[i], spec.num_shards);
    }
  } else {
    // Equal-width ranges over the observed value domain. The last shard
    // absorbs the rounding remainder.
    int64_t lo = 0, hi = 0;
    if (n > 0) {
      auto [mn, mx] = std::minmax_element(vals.begin(), vals.end());
      lo = *mn;
      hi = *mx;
    }
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    const uint64_t width =
        std::max<uint64_t>(1, (span + spec.num_shards - 1) / spec.num_shards);
    for (size_t i = 0; i < n; ++i) {
      uint64_t off = static_cast<uint64_t>(vals[i] - lo);
      assign[i] = static_cast<uint32_t>(
          std::min<uint64_t>(off / width, spec.num_shards - 1));
    }
  }

  ShardedTable st;
  st.base_ = base;
  st.spec_ = spec;
  st.map_ = ShardMap::FromAssignment(std::move(assign), spec.num_shards);
  st.shards_.reserve(spec.num_shards);
  for (uint32_t s = 0; s < spec.num_shards; ++s) {
    Table slice(base->schema());
    const std::vector<rid_t>& globals = st.map_.globals_of(s);
    slice.Resize(globals.size());
    slice.GatherRows(*base, globals.data(), globals.size(), 0);
    st.shards_.push_back(std::move(slice));
  }
  *out = std::move(st);
  return Status::OK();
}

}  // namespace smoke
