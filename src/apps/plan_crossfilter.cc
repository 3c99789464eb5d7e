#include "apps/plan_crossfilter.h"

#include <utility>

#include "query/lineage_query.h"

namespace smoke {

namespace {

/// The lineage of `view` on `relation`.
Status RelationLineage(const PlanResult& view, const std::string& name,
                       const std::string& relation, const TableLineage** out) {
  int idx = view.lineage.FindInput(relation);
  if (idx < 0) {
    return Status::NotFound("view '" + name + "' has no lineage on '" +
                            relation + "'");
  }
  *out = &view.lineage.input(static_cast<size_t>(idx));
  return Status::OK();
}

/// The error for a lineage index the brush needs but `view` lacks.
Status MissingIndex(const PlanResult& view, const std::string& name,
                    const std::string& relation, const char* direction) {
  return Status::InvalidArgument(
      std::string(direction) + " lineage of view '" + name + "' on '" +
      relation + "' was " +
      (view.lineage.evicted() ? "evicted under the lineage memory budget"
                              : "not captured"));
}

}  // namespace

Status PlanCrossfilter::AddView(std::string name, const LogicalPlan& plan,
                                const CaptureOptions& opts) {
  if (Find(name) != nullptr) {
    return Status::AlreadyExists("view '" + name + "'");
  }
  View v;
  v.name = std::move(name);
  SMOKE_RETURN_NOT_OK(ExecutePlan(plan, opts, &v.result));
  const TableLineage* tl = nullptr;
  SMOKE_RETURN_NOT_OK(RelationLineage(v.result, v.name, relation_, &tl));
  if (tl->backward.empty() || tl->forward.empty()) {
    return Status::InvalidArgument(
        "view '" + v.name +
        "' must capture backward and forward lineage on '" + relation_ + "'");
  }
  views_.push_back(std::move(v));
  return Status::OK();
}

std::vector<std::string> PlanCrossfilter::ViewNames() const {
  std::vector<std::string> names;
  names.reserve(views_.size());
  for (const View& v : views_) names.push_back(v.name);
  return names;
}

Status PlanCrossfilter::ViewOutput(const std::string& name,
                                   const Table** out) const {
  const View* v = Find(name);
  if (v == nullptr) return Status::NotFound("view '" + name + "'");
  *out = &v->result.output;
  return Status::OK();
}

const PlanCrossfilter::View* PlanCrossfilter::Find(
    const std::string& name) const {
  for (const View& v : views_) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

Status BrushSeeds(const PlanResult& from, const std::string& from_name,
                  rid_t out_rid, const std::string& relation,
                  std::vector<rid_t>* seeds) {
  const TableLineage* tl = nullptr;
  SMOKE_RETURN_NOT_OK(RelationLineage(from, from_name, relation, &tl));
  if (tl->backward.empty()) {
    return MissingIndex(from, from_name, relation, "backward");
  }
  if (out_rid >= tl->backward.size()) {
    return Status::InvalidArgument(
        "output rid " + std::to_string(out_rid) + " out of range [0, " +
        std::to_string(tl->backward.size()) + ") for view '" + from_name +
        "'");
  }
  seeds->clear();
  tl->backward.TraceInto(out_rid, seeds);
  DedupFirstOccurrence(seeds);
  return Status::OK();
}

Status LinkBrushSeeds(const std::vector<rid_t>& seeds,
                      const std::string& relation, const PlanResult& to,
                      const std::string& to_name, LinkedBrush* out) {
  const TableLineage* tl = nullptr;
  SMOKE_RETURN_NOT_OK(RelationLineage(to, to_name, relation, &tl));
  const LineageIndex& fw = tl->forward;
  if (fw.empty()) return MissingIndex(to, to_name, relation, "forward");

  const Table& view = to.output;
  const size_t num_out = view.num_rows();
  // Output row -> position in out->rids; the one pass over the target's
  // output cardinality.
  std::vector<uint32_t> pos(num_out, UINT32_MAX);
  out->rids.clear();
  out->counts.clear();
  rid_t bad_target = kInvalidRid;
  for (rid_t seed : seeds) {
    if (seed >= fw.size()) {
      return Status::InvalidArgument(
          "base rid " + std::to_string(seed) + " out of range [0, " +
          std::to_string(fw.size()) + ") for the forward lineage of view '" +
          to_name + "'");
    }
    fw.ForEachRelated(seed, [&](rid_t t) {
      if (t == kInvalidRid) return;
      if (t >= num_out) {
        bad_target = t;
        return;
      }
      if (pos[t] == UINT32_MAX) {
        pos[t] = static_cast<uint32_t>(out->rids.size());
        out->rids.push_back(t);
        out->counts.push_back(0);
      }
      out->counts[pos[t]]++;
    });
    if (bad_target != kInvalidRid) {
      return Status::InvalidArgument(
          "linked rid " + std::to_string(bad_target) + " out of range [0, " +
          std::to_string(num_out) + ") for view '" + to_name + "'");
    }
  }

  Table rows(view.schema());
  rows.Resize(out->rids.size());
  rows.GatherRows(view, out->rids.data(), out->rids.size(), 0);
  out->rows = std::move(rows);
  return Status::OK();
}

Status BrushLinkedPlans(const PlanResult& from, const std::string& from_name,
                        rid_t out_rid, const std::string& relation,
                        const PlanResult& to, const std::string& to_name,
                        const CaptureOptions& /*opts*/, LinkedBrush* out) {
  std::vector<rid_t> seeds;
  SMOKE_RETURN_NOT_OK(BrushSeeds(from, from_name, out_rid, relation, &seeds));
  return LinkBrushSeeds(seeds, relation, to, to_name, out);
}

Status PlanCrossfilter::Brush(const std::string& view, rid_t out_rid,
                              std::map<std::string, Linked>* out) const {
  const View* from = Find(view);
  if (from == nullptr) return Status::NotFound("view '" + view + "'");
  out->clear();

  std::vector<rid_t> seeds;
  SMOKE_RETURN_NOT_OK(
      BrushSeeds(from->result, from->name, out_rid, relation_, &seeds));
  for (const View& to : views_) {
    if (&to == from) continue;
    Linked linked;
    SMOKE_RETURN_NOT_OK(
        LinkBrushSeeds(seeds, relation_, to.result, to.name, &linked));
    (*out)[to.name] = std::move(linked);
  }
  return Status::OK();
}

}  // namespace smoke
