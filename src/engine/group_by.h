// Instrumented hash group-by aggregation (paper Section 3.2.3).
//
// The logical GROUPBY decomposes into two physical operators: γht builds the
// hash table mapping group keys to intermediate aggregation state; γagg scans
// it, finalizes aggregates, and emits output records. Lineage capture:
//
//  - Inject (Smoke-I): γ'ht augments each group's state with an i_rids array
//    of input rids; γ'agg moves those arrays into the backward rid index and
//    fills the forward rid array (both exactly sized, since input/output
//    cardinalities are then known). The dominant overhead is i_rids resizing,
//    which per-key cardinality hints (Smoke-I+TC) remove.
//  - Defer (Smoke-D): γ'ht/γ'agg only assign each group its output rid; the
//    hash table is pinned, and FinalizeDeferredGroupBy (the paper's Zγ) later
//    re-scans the input, probes the *reused* hash table, and populates
//    exactly-sized indexes. Can be scheduled during user think time.
//  - Logic-Rid / Logic-Tup: Perm's aggregation rewrite computes the
//    denormalized lineage graph Q ⋈ input as an annotated output relation.
//  - Logic-Idx: additionally scans the annotated relation to build the same
//    end-to-end rid indexes Smoke emits.
//  - Phys-Mem / Phys-Bdb: one virtual writer->Emit(out, in) per lineage edge.
//
// In composable plans this kernel backs the kGroupBy node (plan/operator.h);
// plans finalize deferred capture eagerly while the input batch is alive.
#ifndef SMOKE_ENGINE_GROUP_BY_H_
#define SMOKE_ENGINE_GROUP_BY_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "engine/aggregates.h"
#include "engine/capture.h"
#include "lineage/query_lineage.h"
#include "storage/table.h"

namespace smoke {

/// Group-by query description: key columns plus aggregate list.
struct GroupBySpec {
  std::vector<int> keys;
  std::vector<AggSpec> aggs;
  /// Name-based key references: resolved against the input schema by
  /// PlanBuilder::Build, appended to `keys` in order, then cleared.
  /// Aggregate expressions resolve their own ScalarExpr::Col names.
  std::vector<std::string> key_names;
};

/// \brief The retained γht hash table: key -> dense group slot, plus the
/// per-group arena (aggregation state, counts, representative rids, i_rids).
///
/// Group slots are assigned in first-encounter order and γagg emits groups in
/// slot order, so slot == output rid. The handle outlives the operator so
/// Defer can re-probe it (hash-table reuse, paper P4) and so downstream
/// consumers (Logic-Idx, lazy comparisons, cube push-down) can reuse it.
class GroupByHandle {
 public:
  GroupByHandle() = default;
  SMOKE_DISALLOW_COPY_AND_ASSIGN(GroupByHandle);

  size_t num_groups() const { return counts_.size(); }

  /// Probes the hash table with row `rid` of the original input; returns the
  /// group slot (== output rid) or IntKeyMap::kNotFound. `key` is the
  /// caller's reusable buffer for composite keys (one per thread), so a
  /// probe loop allocates no key per row.
  uint32_t Probe(const Table& input, rid_t rid, std::string* key) const;

  const std::vector<uint32_t>& counts() const { return counts_; }
  const AggLayout& layout() const { return layout_; }
  const std::vector<double>& agg_state() const { return agg_state_; }

 private:
  friend struct GroupByInternals;

  bool int_key_ = false;
  int int_key_col_ = -1;
  std::vector<int> key_cols_;
  IntKeyMap int_map_{64};
  std::unordered_map<std::string, uint32_t> str_map_;

  AggLayout layout_;
  std::vector<double> agg_state_;   // stride per group
  std::vector<rid_t> first_rid_;    // representative input rid per group
  std::vector<uint32_t> counts_;    // input rows per group
  std::vector<RidVec> i_rids_;      // Inject: backward lists (pre-move)
};

/// Result of a group-by: output relation (key columns then aggregate
/// columns), lineage per the capture mode, and the retained hash table.
struct GroupByResult {
  Table output;
  QueryLineage lineage;
  std::shared_ptr<GroupByHandle> handle;
  /// Logic modes only: the denormalized annotated relation (Perm rewrite).
  Table annotated;
};

/// Executes the group-by with the capture technique in `opts`.
/// Under Logic modes the output is the denormalized annotated relation
/// (one row per input row: group keys, aggregates, then "prov_rid" or full
/// input tuple); the proper query output can be emitted separately.
GroupByResult GroupByExec(const Table& input, const std::string& input_name,
                          const GroupBySpec& spec, const CaptureOptions& opts);

/// The paper's Zγ operator: completes lineage for a kDefer run by re-scanning
/// the input and probing the retained hash table. Populates result->lineage
/// with exactly-sized indexes. No-op if lineage is already present.
void FinalizeDeferredGroupBy(GroupByResult* result, const Table& input,
                             const CaptureOptions& opts);

/// What a delta batch did to a retained γht handle (incremental refresh,
/// src/refresh/): one group slot per delta row, plus the touched groups in
/// first-touch order. Slot == output rid; slots >= old_num_groups were
/// created by this delta (their output rows were appended at the end, so
/// slot assignment matches a from-scratch re-execution bit-identically).
struct GroupByDelta {
  std::vector<uint32_t> slots;    ///< group slot per delta row, in rid order
  std::vector<uint32_t> touched;  ///< distinct touched slots, first-touch order
  size_t old_num_groups = 0;
};

/// Merges the delta rows [first_new_rid, input.num_rows()) of a retained
/// group-by's input into its γht handle: updates aggregate state and counts,
/// appends one row to `output` per new group, and patches the finalized
/// aggregate values of every touched group in place (`output` is the
/// retained result table — key columns then aggregate columns, slot ==
/// output rid). Lineage-index maintenance is the caller's job (the composed
/// indexes live with the plan, not the kernel).
GroupByDelta GroupByDeltaAppend(GroupByHandle* h, const Table& input,
                                rid_t first_new_rid, Table* output);

}  // namespace smoke

#endif  // SMOKE_ENGINE_GROUP_BY_H_
