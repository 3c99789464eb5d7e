// The paper's four crossfilter strategies (Section 6.5.1, Appendix D),
// shared by Figures 13 and 14. Each view is GROUP BY one binned column with
// COUNT(*), an SpjaBlock plan over the shared relation; brushing a bar of
// one view recomputes every other view over that bar's rows. Every strategy
// is assembled from the engine's lineage-consumption pieces:
//
//  - Lazy: no capture. Per target view, TraceBuilder GROUP BY target under
//    kLazy — a selection scan with the bar's rewritten predicates.
//  - BT: backward capture. The same query under kIndexed — an indexed scan
//    of the bar's backward list, re-aggregated in a fresh hash table.
//  - BT+FT: backward and forward capture. BrushSeeds decodes the bar once;
//    LinkBrushSeeds counts forward edges per target bar (Listing 1), with
//    no re-aggregation.
//  - DataCube: one SpjaBlock per (view, target) pair with a group-by
//    push-down cube on the target column; a brush is a kCube lookup. The
//    cube build is charged to initialization (the cold-start problem).
#ifndef SMOKE_BENCH_CROSSFILTER_STRATEGIES_H_
#define SMOKE_BENCH_CROSSFILTER_STRATEGIES_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/plan_crossfilter.h"
#include "common/macros.h"
#include "plan/executor.h"
#include "plan/plan.h"
#include "query/trace_builder.h"

namespace smoke {
namespace bench {

enum class CfStrategy { kLazy, kBT, kBTFT, kCube };

class CrossfilterSession {
 public:
  /// `dims`: one int64 column of `data` per view; `relation` names `data`
  /// in every view's lineage.
  CrossfilterSession(const Table& data, std::string relation,
                     std::vector<int> dims, CfStrategy strategy)
      : data_(data),
        relation_(std::move(relation)),
        dims_(std::move(dims)),
        strategy_(strategy) {}

  /// Runs the initial view queries with the capture the strategy needs and,
  /// for DataCube, the pairwise cubes.
  void Initialize() {
    CaptureOptions opts = CaptureOptions::Inject();
    if (strategy_ == CfStrategy::kBT) opts.capture_forward = false;
    if (strategy_ == CfStrategy::kLazy || strategy_ == CfStrategy::kCube) {
      opts.capture_backward = false;
      opts.capture_forward = false;
    }
    for (int dim : dims_) {
      auto view = std::make_unique<View>();
      view->query.fact = &data_;
      view->query.fact_name = relation_;
      view->query.group_by = {ColRef::Fact(dim)};
      view->query.aggs = {AggSpec::Count("cnt")};
      Run(view->query, SPJAPushdown{}, opts, &view->result);
      views_.push_back(std::move(view));
    }
    if (strategy_ != CfStrategy::kCube) return;
    CaptureOptions cube_opts = CaptureOptions::Inject();  // push-down needs it
    cube_opts.capture_backward = false;
    cube_opts.capture_forward = false;
    cubes_.resize(views_.size());
    for (size_t v = 0; v < views_.size(); ++v) {
      cubes_[v].resize(views_.size());
      for (size_t w = 0; w < views_.size(); ++w) {
        if (w == v) continue;
        SPJAPushdown push;
        push.cube_cols = {dims_[w]};
        push.cube_aggs = {AggSpec::Count("cnt")};
        cubes_[v][w] = std::make_unique<PlanResult>();
        Run(views_[v]->query, push, cube_opts, cubes_[v][w].get());
      }
    }
  }

  size_t num_views() const { return views_.size(); }
  size_t NumBars(size_t v) const {
    return views_[v]->result.output.num_rows();
  }
  int64_t BarCount(size_t v, rid_t bar) const {
    return views_[v]->result.output.column(1).ints()[bar];
  }

  /// Brushes bar `bar` of view `v`, recomputing every other view over the
  /// bar's rows. Returns the sum of the recomputed counts, which is
  /// BarCount(v, bar) * (num_views() - 1) when the brush is right.
  int64_t Brush(size_t v, rid_t bar) const {
    int64_t total = 0;
    if (strategy_ == CfStrategy::kBTFT) {
      std::vector<rid_t> seeds;
      SMOKE_CHECK(
          BrushSeeds(views_[v]->result, "view", bar, relation_, &seeds).ok());
      for (size_t w = 0; w < views_.size(); ++w) {
        if (w == v) continue;
        LinkedBrush linked;
        SMOKE_CHECK(LinkBrushSeeds(seeds, relation_, views_[w]->result,
                                   "target", &linked)
                        .ok());
        for (int64_t c : linked.counts) total += c;
      }
      return total;
    }
    for (size_t w = 0; w < views_.size(); ++w) {
      if (w == v) continue;
      TraceSource src;
      TraceStrategy s = TraceStrategy::kCube;
      if (strategy_ == CfStrategy::kCube) {
        src = TraceSource::FromPlan(*cubes_[v][w], "cube");
      } else {
        src = TraceSource::FromPlan(views_[v]->result, "view");
        src.query = &views_[v]->query;
        s = strategy_ == CfStrategy::kLazy ? TraceStrategy::kLazy
                                           : TraceStrategy::kIndexed;
      }
      PlanResult pr;
      SMOKE_CHECK(TraceBuilder::Backward(src, relation_, {bar})
                      .GroupBy(GroupExpr::Raw(dims_[w], "bin"))
                      .Agg(AggSpec::Count("cnt"))
                      .Strategy(s)
                      .Execute(CaptureOptions::None(), &pr)
                      .ok());
      for (int64_t c : pr.output.column(1).ints()) total += c;
    }
    return total;
  }

  /// Memory held by the captured lineage and the cubes.
  size_t IndexMemoryBytes() const {
    size_t b = 0;
    for (const auto& view : views_) b += view->result.lineage.MemoryBytes();
    for (const auto& per_v : cubes_) {
      for (const auto& cube : per_v) {
        if (cube != nullptr) b += cube->spja_artifacts->cube.MemoryBytes();
      }
    }
    return b;
  }

 private:
  // Heap-held so TraceSources may borrow the query and result.
  struct View {
    SPJAQuery query;
    PlanResult result;
  };

  static void Run(const SPJAQuery& q, SPJAPushdown push,
                  const CaptureOptions& opts, PlanResult* out) {
    PlanBuilder b;
    LogicalPlan plan;
    SMOKE_CHECK(b.Build(b.SpjaBlock(q, std::move(push)), &plan).ok());
    SMOKE_CHECK(ExecutePlan(plan, opts, out).ok());
  }

  const Table& data_;
  std::string relation_;
  std::vector<int> dims_;
  CfStrategy strategy_;
  std::vector<std::unique_ptr<View>> views_;
  std::vector<std::vector<std::unique_ptr<PlanResult>>> cubes_;
};

}  // namespace bench
}  // namespace smoke

#endif  // SMOKE_BENCH_CROSSFILTER_STRATEGIES_H_
