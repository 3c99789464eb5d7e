// Figure 8: relative lineage capture overhead on TPC-H Q1, Q3, Q10, Q12.
// Paper (SF1): Smoke-I at most ~22% overhead; Logic-Idx 41%-511%, worst on
// Q1 whose high-selectivity predicate maximizes the denormalized lineage
// graph. Smoke-D is slower than Smoke-I but faster than logical capture.
//
// Each query runs in two forms: form=block is the fused SPJA block (every
// mode, Logic-Idx included); form=plan is the same query as a primitive
// Scan -> Select -> HashJoin -> GroupBy plan run through ExecutePlan under
// Baseline, Smoke-I and Smoke-D (logic capture needs a single-block plan),
// so the cost of the composed execution path shows beside the fused one.
#include <cstdlib>

#include "harness.h"

#include "engine/spja.h"
#include "plan/executor.h"
#include "plan/plan.h"
#include "workloads/tpch.h"

namespace smoke {
namespace {

ScalarExpr Col(const char* name) { return ScalarExpr::Col(std::string(name)); }

ScalarExpr DiscPrice() {
  return ScalarExpr::Mul(Col("l_extendedprice"),
                         ScalarExpr::Sub(ScalarExpr::Const(1.0),
                                         Col("l_discount")));
}

JoinSpec PkJoin(const char* build_key, const char* probe_key) {
  JoinSpec j;
  j.left_key_name = build_key;
  j.right_key_name = probe_key;
  j.pk_build = true;
  return j;
}

/// The primitive-plan forms of tpch::MakeQ1/Q3/Q10/Q12 (name references
/// resolve against each node's input schema at build time).
LogicalPlan Q1Plan(const tpch::Database& db) {
  PlanBuilder b;
  int sel = b.Select(b.Scan(&db.lineitem, "lineitem"),
                     {Predicate::Int("l_shipdate", CmpOp::kLe, 19980902)});
  GroupBySpec g;
  g.key_names = {"l_returnflag", "l_linestatus"};
  g.aggs = {AggSpec::Sum(Col("l_quantity"), "sum_qty"),
            AggSpec::Sum(Col("l_extendedprice"), "sum_base_price"),
            AggSpec::Sum(DiscPrice(), "sum_disc_price"),
            AggSpec::Sum(ScalarExpr::Mul(DiscPrice(),
                                         ScalarExpr::Add(ScalarExpr::Const(1.0),
                                                         Col("l_tax"))),
                         "sum_charge"),
            AggSpec::Avg(Col("l_quantity"), "avg_qty"),
            AggSpec::Avg(Col("l_extendedprice"), "avg_price"),
            AggSpec::Avg(Col("l_discount"), "avg_disc"),
            AggSpec::Count("count_order")};
  LogicalPlan plan;
  SMOKE_CHECK(b.Build(b.GroupBy(sel, g), &plan).ok());
  return plan;
}

LogicalPlan Q3Plan(const tpch::Database& db) {
  PlanBuilder b;
  int cust = b.Select(b.Scan(&db.customer, "customer"),
                      {Predicate::Str("c_mktsegment", CmpOp::kEq, "BUILDING")});
  int ord = b.Select(b.Scan(&db.orders, "orders"),
                     {Predicate::Int("o_orderdate", CmpOp::kLt, 19950315)});
  int co = b.HashJoin(cust, ord, PkJoin("c_custkey", "o_custkey"));
  int li = b.Select(b.Scan(&db.lineitem, "lineitem"),
                    {Predicate::Int("l_shipdate", CmpOp::kGt, 19950315)});
  int col = b.HashJoin(co, li, PkJoin("o_orderkey", "l_orderkey"));
  GroupBySpec g;
  g.key_names = {"l_orderkey", "o_orderdate", "o_shippriority"};
  g.aggs = {AggSpec::Sum(DiscPrice(), "revenue")};
  LogicalPlan plan;
  SMOKE_CHECK(b.Build(b.GroupBy(col, g), &plan).ok());
  return plan;
}

LogicalPlan Q10Plan(const tpch::Database& db) {
  PlanBuilder b;
  int cn = b.HashJoin(b.Scan(&db.nation, "nation"),
                      b.Scan(&db.customer, "customer"),
                      PkJoin("n_nationkey", "c_nationkey"));
  int ord = b.Select(b.Scan(&db.orders, "orders"),
                     {Predicate::Int("o_orderdate", CmpOp::kGe, 19931001),
                      Predicate::Int("o_orderdate", CmpOp::kLt, 19940101)});
  int cno = b.HashJoin(cn, ord, PkJoin("c_custkey", "o_custkey"));
  int li = b.Select(b.Scan(&db.lineitem, "lineitem"),
                    {Predicate::Str("l_returnflag", CmpOp::kEq, "R")});
  int all = b.HashJoin(cno, li, PkJoin("o_orderkey", "l_orderkey"));
  GroupBySpec g;
  g.key_names = {"c_custkey", "c_name", "c_acctbal",
                 "c_phone",   "n_name", "c_address"};
  g.aggs = {AggSpec::Sum(DiscPrice(), "revenue")};
  LogicalPlan plan;
  SMOKE_CHECK(b.Build(b.GroupBy(all, g), &plan).ok());
  return plan;
}

LogicalPlan Q12Plan(const tpch::Database& db) {
  PlanBuilder b;
  int li = b.Select(
      b.Scan(&db.lineitem, "lineitem"),
      {Predicate::StrIn("l_shipmode", {"MAIL", "SHIP"}),
       Predicate::ColCmp("l_commitdate", CmpOp::kLt, "l_receiptdate"),
       Predicate::ColCmp("l_shipdate", CmpOp::kLt, "l_commitdate"),
       Predicate::Int("l_receiptdate", CmpOp::kGe, 19940101),
       Predicate::Int("l_receiptdate", CmpOp::kLt, 19950101)});
  int ol = b.HashJoin(b.Scan(&db.orders, "orders"), li,
                      PkJoin("o_orderkey", "l_orderkey"));
  GroupBySpec g;
  g.key_names = {"l_shipmode"};
  g.aggs = {AggSpec::Sum(ScalarExpr::Indicator(Predicate::StrIn(
                             "o_orderpriority", {"1-URGENT", "2-HIGH"})),
                         "high_line_count"),
            AggSpec::Sum(ScalarExpr::Indicator(Predicate::StrIn(
                             "o_orderpriority",
                             {"3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"})),
                         "low_line_count")};
  LogicalPlan plan;
  SMOKE_CHECK(b.Build(b.GroupBy(ol, g), &plan).ok());
  return plan;
}

void Run(const bench::Options& opts) {
  const double sf =
      opts.scale > 0 ? opts.scale : (opts.full ? 1.0 : opts.smoke ? 0.01 : 0.1);
  bench::Banner("Figure 8",
                "TPC-H lineage capture relative overhead (Smoke-I vs "
                "Logic-Idx; Smoke-D included)");
  std::printf("scale factor %.2f\n", sf);
  tpch::Database db = tpch::Generate(sf);

  struct NamedQuery {
    const char* name;
    SPJAQuery query;
    LogicalPlan plan;
  };
  NamedQuery queries[] = {{"Q1", tpch::MakeQ1(db), Q1Plan(db)},
                          {"Q3", tpch::MakeQ3(db), Q3Plan(db)},
                          {"Q10", tpch::MakeQ10(db), Q10Plan(db)},
                          {"Q12", tpch::MakeQ12(db), Q12Plan(db)}};

  auto row = [](const char* query, const char* form, CaptureMode m,
                double ms, double baseline_ms) {
    double overhead_pct =
        baseline_ms > 0 ? 100.0 * (ms - baseline_ms) / baseline_ms : 0;
    bench::Row("fig08", std::string("query=") + query + ",form=" + form +
                            ",mode=" + CaptureModeName(m) +
                            ",ms=" + bench::F(ms) +
                            ",overhead_pct=" + bench::F(overhead_pct));
  };

  for (auto& nq : queries) {
    double baseline_ms = 0;
    size_t block_rows = 0;
    for (CaptureMode m : {CaptureMode::kNone, CaptureMode::kInject,
                          CaptureMode::kDefer, CaptureMode::kLogicIdx}) {
      RunStats s = bench::Measure(opts, [&] {
        block_rows =
            SPJAExec(nq.query, opts.WithThreads(CaptureOptions::Mode(m)))
                .output.num_rows();
      });
      if (m == CaptureMode::kNone) baseline_ms = s.mean_ms;
      row(nq.name, "block", m, s.mean_ms, baseline_ms);
    }
    for (CaptureMode m : {CaptureMode::kNone, CaptureMode::kInject,
                          CaptureMode::kDefer}) {
      size_t plan_rows = 0;
      RunStats s = bench::Measure(opts, [&] {
        PlanResult pr;
        SMOKE_CHECK(
            ExecutePlan(nq.plan, opts.WithThreads(CaptureOptions::Mode(m)),
                        &pr)
                .ok());
        plan_rows = pr.output.num_rows();
      });
      if (plan_rows != block_rows) {
        std::fprintf(stderr, "fig08: %s plan form has %zu rows, block %zu\n",
                     nq.name, plan_rows, block_rows);
        std::exit(1);
      }
      // Overheads of both forms are against the block's Baseline time.
      row(nq.name, "plan", m, s.mean_ms, baseline_ms);
    }
  }
}

}  // namespace
}  // namespace smoke

int main(int argc, char** argv) {
  smoke::Run(smoke::bench::Options::Parse(argc, argv));
  return 0;
}
