// The unified lineage-consumption API: typed engine handles, Trace plans
// over random plan DAGs, and the bounds-validated lineage query core. The
// TPC-H consuming queries under every physical strategy are in
// consuming_test.cc.
#include "query/trace_builder.h"

#include <random>

#include <gtest/gtest.h>

#include "core/smoke_engine.h"
#include "query/lineage_query.h"
#include "test_util.h"
#include "workloads/tpch.h"

namespace smoke {
namespace {

// ---------------------------------------------------------------------------
// Typed engine handles.
// ---------------------------------------------------------------------------

TEST(TraceHandleTest, TypedTraceMatchesStringShims) {
  tpch::Database db = tpch::Generate(0.005);
  SmokeEngine eng;
  ASSERT_TRUE(eng.CreateTable("lineitem", std::move(db.lineitem)).ok());
  const Table* lineitem = nullptr;
  ASSERT_TRUE(eng.GetTable("lineitem", &lineitem).ok());
  SPJAQuery q1 = tpch::MakeQ1(db);
  q1.fact = lineitem;  // rebind to the engine-owned relation
  ASSERT_TRUE(eng.ExecuteQuery("q1", q1).ok());

  TraceResult t;
  ASSERT_TRUE(eng.TraceBackward("q1", "lineitem", {0}, &t).ok());
  std::vector<rid_t> rids;
  ASSERT_TRUE(eng.Backward("q1", "lineitem", {0}, &rids).ok());
  EXPECT_EQ(t.rids, rids);
  EXPECT_EQ(t.rows.num_rows(), rids.size());
  EXPECT_EQ(t.rows.num_columns(), lineitem->num_columns());

  Table rows;
  ASSERT_TRUE(eng.BackwardRows("q1", "lineitem", {0}, &rows).ok());
  EXPECT_EQ(testing::RowSet(t.rows), testing::RowSet(rows));

  // The handle is chainable: forward over its own plan round-trips.
  TraceResult fwd;
  ASSERT_TRUE(eng.TraceForward("q1", "lineitem", t.rids, &fwd).ok());
  EXPECT_EQ(fwd.rids, std::vector<rid_t>{0});

  // Typed trace of an unknown query or relation fails cleanly.
  EXPECT_FALSE(eng.TraceBackward("nope", "lineitem", {0}, &t).ok());
  EXPECT_FALSE(eng.TraceBackward("q1", "nope", {0}, &t).ok());
  EXPECT_FALSE(eng.TraceBackward("q1", "lineitem", {999999}, &t).ok());
}

// ---------------------------------------------------------------------------
// Property: forward ∘ backward round-trips over random plan DAGs through
// the Trace API, for random rid subsets.
// ---------------------------------------------------------------------------

Table MakePropertyTable(std::mt19937* rng, size_t n) {
  Schema s;
  s.AddField("id", DataType::kInt64);
  s.AddField("a", DataType::kInt64);
  s.AddField("b", DataType::kInt64);
  s.AddField("v", DataType::kFloat64);
  Table t(s);
  std::uniform_int_distribution<int64_t> da(0, 7), db(0, 19);
  std::uniform_real_distribution<double> dv(0.0, 100.0);
  for (size_t i = 0; i < n; ++i) {
    t.AppendRow({static_cast<int64_t>(i), da(*rng), db(*rng), dv(*rng)});
  }
  return t;
}

/// Builds one of three random plan shapes over `t`: select→group-by,
/// select→group-by→group-by (rollup), or bag-union of two selects→group-by.
LogicalPlan MakeRandomPlan(std::mt19937* rng, const Table* t) {
  PlanBuilder b;
  std::uniform_int_distribution<int> shape(0, 2), cut(0, 19);
  GroupBySpec ga;
  ga.keys = {1};  // a
  ga.aggs = {AggSpec::Count("cnt"),
             AggSpec::Sum(ScalarExpr::Col(3), "sum_v")};
  int root = -1;
  switch (shape(*rng)) {
    case 0: {
      int scan = b.Scan(t, "base");
      int sel = b.Select(scan, {Predicate::Int(2, CmpOp::kLe, cut(*rng))});
      root = b.GroupBy(sel, ga);
      break;
    }
    case 1: {
      int scan = b.Scan(t, "base");
      int sel = b.Select(scan, {Predicate::Int(2, CmpOp::kGe, cut(*rng))});
      int gb = b.GroupBy(sel, ga);
      GroupBySpec rollup;
      rollup.keys = {1};  // cnt (group-by output: a, cnt, sum_v)
      rollup.aggs = {AggSpec::Count("n_groups")};
      root = b.GroupBy(gb, rollup);
      break;
    }
    default: {
      int scan = b.Scan(t, "base");
      int s1 = b.Select(scan, {Predicate::Int(2, CmpOp::kLe, cut(*rng))});
      int s2 = b.Select(scan, {Predicate::Int(2, CmpOp::kGe, cut(*rng))});
      int u = b.SetOp(SetOpKind::kBagUnion, s1, s2, std::vector<int>{});
      root = b.GroupBy(u, ga);
      break;
    }
  }
  LogicalPlan plan;
  SMOKE_CHECK(b.Build(root, &plan).ok());
  return plan;
}

TEST(TracePropertyTest, ForwardBackwardRoundTripsOverRandomPlans) {
  std::mt19937 rng(20180717);
  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Table t = MakePropertyTable(&rng, 4000);
    LogicalPlan plan = MakeRandomPlan(&rng, &t);
    PlanResult pr;
    ASSERT_TRUE(ExecutePlan(plan, CaptureOptions::Inject(), &pr).ok());
    if (pr.output.num_rows() == 0) continue;
    TraceSource src = TraceSource::FromPlan(pr, "plan");

    // Random output subset O'.
    std::vector<rid_t> subset;
    std::uniform_int_distribution<rid_t> pick(
        0, static_cast<rid_t>(pr.output.num_rows() - 1));
    std::uniform_int_distribution<size_t> count(1, 5);
    size_t k = count(rng);
    for (size_t i = 0; i < k; ++i) subset.push_back(pick(rng));

    PlanResult back;
    ASSERT_TRUE(TraceBuilder::Backward(src, "base", subset)
                    .Dedup(true)
                    .Execute(CaptureOptions::Inject(), &back)
                    .ok());
    int rc = back.output.ColumnIndex(kTraceRidColumn);
    ASSERT_GE(rc, 0);
    const auto& bvals = back.output.column(static_cast<size_t>(rc)).ints();
    std::vector<rid_t> b_rids(bvals.begin(), bvals.end());

    if (b_rids.empty()) continue;
    PlanResult fwd;
    ASSERT_TRUE(TraceBuilder::Forward(src, "base", b_rids)
                    .Execute(CaptureOptions::Inject(), &fwd)
                    .ok());
    rc = fwd.output.ColumnIndex(kTraceRidColumn);
    ASSERT_GE(rc, 0);
    const auto& fvals = fwd.output.column(static_cast<size_t>(rc)).ints();
    std::set<rid_t> f_set(fvals.begin(), fvals.end());

    // Every output with nonempty backward lineage must be recovered.
    for (rid_t o : subset) {
      std::vector<rid_t> alone;
      ASSERT_TRUE(
          BackwardRidsChecked(pr.lineage, "base", {o}, true, &alone).ok());
      if (!alone.empty()) {
        EXPECT_TRUE(f_set.count(o)) << "output " << o << " lost";
      }
    }
    // And backward of the recovered outputs covers the traced inputs.
    std::vector<rid_t> f_rids(f_set.begin(), f_set.end());
    std::vector<rid_t> back2;
    ASSERT_TRUE(
        BackwardRidsChecked(pr.lineage, "base", f_rids, true, &back2).ok());
    std::set<rid_t> back2_set(back2.begin(), back2.end());
    for (rid_t r : b_rids) {
      EXPECT_TRUE(back2_set.count(r)) << "input " << r << " lost";
    }
  }
}

// ---------------------------------------------------------------------------
// Bounds validation (regression: out-of-range rids used to index OOB).
// ---------------------------------------------------------------------------

TEST(LineageBoundsTest, CheckedQueriesRejectOutOfRangeRids) {
  Schema s;
  s.AddField("k", DataType::kInt64);
  Table t(s);
  for (int64_t i = 0; i < 10; ++i) t.AppendRow({i % 3});
  GroupBySpec spec;
  spec.keys = {0};
  spec.aggs = {AggSpec::Count("cnt")};
  auto res = GroupByExec(t, "t", spec, CaptureOptions::Inject());

  std::vector<rid_t> out;
  EXPECT_FALSE(
      BackwardRidsChecked(res.lineage, "t", {99}, false, &out).ok());
  EXPECT_FALSE(ForwardRidsChecked(res.lineage, "t", {10}, true, &out).ok());
  EXPECT_FALSE(
      BackwardRidsChecked(res.lineage, "missing", {0}, false, &out).ok());
  Table rows;
  EXPECT_FALSE(MaterializeRowsChecked(t, {10}, &rows).ok());
  EXPECT_FALSE(MaterializeRowsChecked(t, {0, 1, 12345}, &rows).ok());

  // In-range queries still work, and the boundary is exact.
  EXPECT_TRUE(BackwardRidsChecked(res.lineage, "t", {2}, false, &out).ok());
  EXPECT_FALSE(BackwardRidsChecked(res.lineage, "t", {3}, false, &out).ok());
  EXPECT_TRUE(MaterializeRowsChecked(t, {9}, &rows).ok());

  // Trace plan nodes report the same errors through Status.
  PlanResult base;
  PlanBuilder pb;
  int gb = pb.GroupBy(pb.Scan(&t, "t"), spec);
  LogicalPlan plan;
  ASSERT_TRUE(pb.Build(gb, &plan).ok());
  ASSERT_TRUE(ExecutePlan(plan, CaptureOptions::Inject(), &base).ok());
  PlanResult pr;
  EXPECT_FALSE(TraceBuilder::Backward(TraceSource::FromPlan(base), "t", {99})
                   .Execute(CaptureOptions::Inject(), &pr)
                   .ok());
}

}  // namespace
}  // namespace smoke
