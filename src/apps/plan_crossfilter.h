// Crossfilter over retained plans (paper Section 6.5.1, generalized per
// ROADMAP "Crossfilter on plans"): each view is an arbitrary retained
// LogicalPlan — a plain group-by histogram, an aggregate-over-aggregate
// rollup, a join of aggregated subplans — and linked brushing is the
// backward-then-forward lookup over each view's composed lineage on the
// shared base relation. Any view shape with captured lineage on the shared
// relation participates. Figures 13/14 build their Lazy, BT, BT+FT and
// DataCube strategies from these two steps and from TraceBuilder.
//
// A brush is two secondary-index steps, not a trace plan:
//  1. BrushSeeds decodes the brushed row's backward list once and
//     deduplicates it in first-occurrence order;
//  2. LinkBrushSeeds probes one target view's forward index per seed rid,
//     numbers each reached output row on first reach, counts the forward
//     edges that hit it, and materializes only the reached rows.
// A brush over k targets costs O(|backward(bar)| * k + sum of linked rows)
// plus one pass over each target's output cardinality; nothing is sized by
// the shared relation's row count. Results are identical to the
// TraceBuilder::Backward(from).ThenForward(to) plan (same rid order, counts
// and rows), which remains the general, chainable form.
#ifndef SMOKE_APPS_PLAN_CROSSFILTER_H_
#define SMOKE_APPS_PLAN_CROSSFILTER_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "plan/executor.h"
#include "plan/plan.h"

namespace smoke {

/// One view's share of a linked brush: the reachable output rows, the
/// shared-relation witness count per row, and the rows materialized.
struct LinkedBrush {
  std::vector<rid_t> rids;      ///< linked output rows of the target view
  std::vector<int64_t> counts;  ///< shared-relation witnesses per row
  Table rows;                   ///< the linked rows, materialized
};

/// Brush step 1: the shared-relation rids behind output row `out_rid` of
/// view `from` — its backward list on `relation`, duplicates dropped,
/// first occurrences kept in order. Costs O(|backward(out_rid)|). Fails
/// (never aborts) when `out_rid` is out of range, `relation` is not in the
/// view's lineage, or the backward index was not captured or was evicted.
Status BrushSeeds(const PlanResult& from, const std::string& from_name,
                  rid_t out_rid, const std::string& relation,
                  std::vector<rid_t>* seeds);

/// Brush step 2: links `seeds` (from BrushSeeds) into view `to` through
/// its forward index on `relation`. rids lists the reached output rows in
/// first-reach order; counts[i] is the number of forward edges from the
/// seeds that hit rids[i] — for a group-by COUNT(*) view, the brushed bar
/// count (the rows of bar rids[i] among the seeds); rows holds those output
/// rows of `to`. Costs O(|seeds| + linked rows) plus one pass over `to`'s
/// output cardinality. Fails when `relation` is not in the view's lineage,
/// the forward index was not captured or was evicted, or a seed lies
/// beyond the forward index (lineage of another relation version).
Status LinkBrushSeeds(const std::vector<rid_t>& seeds,
                      const std::string& relation, const PlanResult& to,
                      const std::string& to_name, LinkedBrush* out);

/// Brushes output row `out_rid` of `from` into `to` through `relation`:
/// BrushSeeds followed by LinkBrushSeeds. Callers linking one brush into
/// several views should call the two steps themselves, so the backward
/// list is decoded once per brush rather than once per target.
///
/// Session-safe: inputs are const, all state is local to the call, and the
/// retained lineage indexes are immutable after finalize — any number of
/// concurrent brushes may share the same PlanResults (the serving layer
/// calls this from many sessions over one snapshot). `opts` is accepted
/// for compatibility and no longer affects execution: no plan is built, so
/// there is nothing to capture or schedule.
Status BrushLinkedPlans(const PlanResult& from, const std::string& from_name,
                        rid_t out_rid, const std::string& relation,
                        const PlanResult& to, const std::string& to_name,
                        const CaptureOptions& opts, LinkedBrush* out);

/// \brief A linked-brushing session over retained plan views sharing one
/// base relation.
class PlanCrossfilter {
 public:
  /// `relation` is the scan label (lineage endpoint) shared by all views.
  explicit PlanCrossfilter(std::string relation)
      : relation_(std::move(relation)) {}

  /// Executes `plan` and retains it as view `name`. The capture options
  /// must produce backward and forward lineage on the shared relation
  /// (CaptureOptions::Inject() default); AddView fails otherwise.
  Status AddView(std::string name, const LogicalPlan& plan,
                 const CaptureOptions& opts = CaptureOptions::Inject());

  size_t num_views() const { return views_.size(); }
  std::vector<std::string> ViewNames() const;
  Status ViewOutput(const std::string& name, const Table** out) const;

  /// One view's share of a brush result.
  using Linked = LinkedBrush;

  /// Brushes output row `out_rid` of `view`: for every *other* view, the
  /// output rows reachable through the shared relation, with counts[i] =
  /// forward edges from the brushed row's base rids that reach rids[i]
  /// (see LinkBrushSeeds). The backward list is decoded once per call.
  Status Brush(const std::string& view, rid_t out_rid,
               std::map<std::string, Linked>* out) const;

 private:
  struct View {
    std::string name;
    PlanResult result;
  };
  const View* Find(const std::string& name) const;

  std::string relation_;
  std::vector<View> views_;  // insertion order
};

}  // namespace smoke

#endif  // SMOKE_APPS_PLAN_CROSSFILTER_H_
