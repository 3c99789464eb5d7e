// Lineage-consuming queries over TPC-H Q1 (paper Section 6.4: the
// Q1a/Q1b/Q1c drill-down) compiled by TraceBuilder under every physical
// strategy — indexed, lazy, skipping, cube — and checked against the
// paper's definition: the same filters, group keys and aggregates run as a
// plain plan over the traced rows, with no Trace node and no strategy.
#include "query/trace_builder.h"

#include <memory>

#include <gtest/gtest.h>

#include "core/smoke_engine.h"
#include "query/lazy.h"
#include "query/lineage_query.h"
#include "test_util.h"
#include "workloads/tpch.h"

namespace smoke {
namespace {

using testing::GroupedRows;

/// The reference evaluation of a consuming query over the traced rows
/// `rids` of `input`: Scan(MaterializeRows(input, rids)) → Select → Derive
/// → GroupBy, captured with Inject.
struct Reference {
  std::vector<rid_t> rids;
  std::unique_ptr<Table> rows;  // borrowed by result's lineage
  PlanResult result;

  /// Backward list of reference output row `out`, as rids of `input`.
  std::vector<rid_t> Backward(rid_t out) const {
    std::vector<rid_t> pos, mapped;
    result.lineage.input(0).backward.TraceInto(out, &pos);
    for (rid_t p : pos) mapped.push_back(rids[p]);
    return mapped;
  }
};

std::unique_ptr<Reference> RunReference(const Table& input,
                                        std::vector<rid_t> rids,
                                        const ConsumingSpec& spec) {
  auto ref = std::make_unique<Reference>();
  ref->rids = std::move(rids);
  ref->rows = std::make_unique<Table>(MaterializeRows(input, ref->rids));
  PlanBuilder b;
  int cur = b.Scan(ref->rows.get(), "traced");
  if (!spec.filters.empty()) cur = b.Select(cur, spec.filters);
  GroupBySpec gs;
  if (!spec.group_by.empty()) {
    cur = b.Derive(cur, spec.group_by);
    for (size_t i = 0; i < spec.group_by.size(); ++i) {
      gs.keys.push_back(static_cast<int>(input.num_columns() + i));
    }
  }
  gs.aggs = spec.aggs;
  LogicalPlan plan;
  SMOKE_CHECK(b.Build(b.GroupBy(cur, std::move(gs)), &plan).ok());
  SMOKE_CHECK(ExecutePlan(plan, CaptureOptions::Inject(), &ref->result).ok());
  return ref;
}

/// Backward list of output row `out` of a compiled consuming query.
std::vector<rid_t> LineitemBackward(const PlanResult& pr, rid_t out) {
  int rel = pr.lineage.FindInput("lineitem");
  SMOKE_CHECK(rel >= 0);
  std::vector<rid_t> rids;
  pr.lineage.input(static_cast<size_t>(rel)).backward.TraceInto(out, &rids);
  return rids;
}

class ConsumingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new tpch::Database(tpch::Generate(0.01));
    q1_ = new SPJAQuery(tpch::MakeQ1(*db_));
    base_ = new SPJAResult(SPJAExec(*q1_, CaptureOptions::Inject()));

    SPJAPushdown skip;
    skip.skip_cols = {tpch::kLShipmode, tpch::kLShipinstruct};
    skip_base_ = new SPJAResult(SPJAExec(*q1_, CaptureOptions::Inject(), &skip));

    SPJAPushdown cube;
    cube.cube_cols = {tpch::kLTax};
    cube.cube_aggs = {
        AggSpec::Count("cnt"),
        AggSpec::Sum(ScalarExpr::Col(tpch::kLQuantity), "sum_qty")};
    cube_base_ = new SPJAResult(SPJAExec(*q1_, CaptureOptions::Inject(), &cube));
  }
  static void TearDownTestSuite() {
    delete cube_base_;
    delete skip_base_;
    delete base_;
    delete q1_;
    delete db_;
  }

  static TraceSource BaseSource() {
    return TraceSource::FromSpja(*q1_, *base_, "q1");
  }
  static TraceSource SkipSource() {
    return TraceSource::FromSpja(*q1_, *skip_base_, "q1skip");
  }

  static std::vector<rid_t> BackwardList(rid_t oid) {
    const RidVec& l = base_->lineage.input(0).backward.index().list(oid);
    return std::vector<rid_t>(l.begin(), l.end());
  }

  /// Compiles and runs `spec` over Lb(oid, lineitem) of `src` under `s`,
  /// expecting the compile to resolve to `s`.
  static void Run(const TraceSource& src, rid_t oid, const ConsumingSpec& spec,
                  TraceStrategy s, PlanResult* out) {
    LineageQuery compiled;
    TraceBuilder b = TraceBuilder::Backward(src, "lineitem", {oid});
    b.Consuming(spec).Strategy(s);
    ASSERT_TRUE(b.Compile(&compiled).ok());
    EXPECT_EQ(compiled.strategy(), s);
    ASSERT_TRUE(compiled.Execute(CaptureOptions::Inject(), out).ok());
  }

  static tpch::Database* db_;
  static SPJAQuery* q1_;
  static SPJAResult* base_;
  static SPJAResult* skip_base_;
  static SPJAResult* cube_base_;
};
tpch::Database* ConsumingTest::db_ = nullptr;
SPJAQuery* ConsumingTest::q1_ = nullptr;
SPJAResult* ConsumingTest::base_ = nullptr;
SPJAResult* ConsumingTest::skip_base_ = nullptr;
SPJAResult* ConsumingTest::cube_base_ = nullptr;

TEST_F(ConsumingTest, Q1aIndexedMatchesReference) {
  ConsumingSpec q1a = tpch::MakeQ1a(*db_);
  for (rid_t oid = 0; oid < base_->output.num_rows(); ++oid) {
    SCOPED_TRACE("group " + std::to_string(oid));
    PlanResult pr;
    Run(BaseSource(), oid, q1a, TraceStrategy::kIndexed, &pr);
    auto ref = RunReference(db_->lineitem, BackwardList(oid), q1a);
    const Table& want = ref->result.output;
    // Row-for-row: the compiled pipeline preserves first-encounter order.
    ASSERT_EQ(pr.output.num_rows(), want.num_rows());
    for (rid_t r = 0; r < pr.output.num_rows(); ++r) {
      ASSERT_EQ(testing::RowKey(pr.output, r), testing::RowKey(want, r));
      // The consuming query's own composed lineage: same rids, same
      // witness order as the reference's backward lists.
      ASSERT_EQ(LineitemBackward(pr, r), ref->Backward(r)) << "cell " << r;
    }
  }
}

TEST_F(ConsumingTest, Q1aGroupsByYearMonth) {
  PlanResult pr;
  Run(BaseSource(), 0, tpch::MakeQ1a(*db_), TraceStrategy::kIndexed, &pr);
  EXPECT_GT(pr.output.num_rows(), 12u);  // several year-month cells
  const auto& years = pr.output.column(0).ints();
  const auto& months = pr.output.column(1).ints();
  for (size_t g = 0; g < pr.output.num_rows(); ++g) {
    EXPECT_GE(years[g], 1992);
    EXPECT_LE(years[g], 1998);
    EXPECT_GE(months[g], 1);
    EXPECT_LE(months[g], 12);
  }
}

TEST_F(ConsumingTest, Q1bLazyMatchesReference) {
  ConsumingSpec q1b = tpch::MakeQ1b(*db_, "MAIL", "NONE");
  for (rid_t oid = 0; oid < base_->output.num_rows(); ++oid) {
    PlanResult pr;
    Run(BaseSource(), oid, q1b, TraceStrategy::kLazy, &pr);
    auto ref = RunReference(db_->lineitem, BackwardList(oid), q1b);
    ASSERT_EQ(GroupedRows(pr.output, 2), GroupedRows(ref->result.output, 2))
        << "group " << oid;
  }
}

TEST_F(ConsumingTest, Q1bFiltersApply) {
  PlanResult pr;
  Run(BaseSource(), 1, tpch::MakeQ1b(*db_, "MAIL", "NONE"),
      TraceStrategy::kIndexed, &pr);
  // Captured consuming lineage only contains MAIL/NONE rows.
  const auto& modes = db_->lineitem.column(tpch::kLShipmode).strings();
  const auto& instr = db_->lineitem.column(tpch::kLShipinstruct).strings();
  ASSERT_GT(pr.output.num_rows(), 0u);
  for (rid_t g = 0; g < pr.output.num_rows(); ++g) {
    for (rid_t r : LineitemBackward(pr, g)) {
      ASSERT_EQ(modes[r], "MAIL");
      ASSERT_EQ(instr[r], "NONE");
    }
  }
}

TEST_F(ConsumingTest, Q1bSkippingMatchesReference) {
  ASSERT_GT(skip_base_->skip_dict.num_codes, 0u);
  for (const char* mode : {"MAIL", "RAIL"}) {
    for (const char* instr : {"NONE", "COLLECT COD"}) {
      ConsumingSpec q1b = tpch::MakeQ1b(*db_, mode, instr);
      for (rid_t oid = 0; oid < skip_base_->output.num_rows(); ++oid) {
        SCOPED_TRACE(std::string(mode) + "/" + instr + " oid " +
                     std::to_string(oid));
        PlanResult pr;
        Run(SkipSource(), oid, q1b, TraceStrategy::kSkipping, &pr);
        auto ref = RunReference(db_->lineitem, BackwardList(oid), q1b);
        ASSERT_EQ(GroupedRows(pr.output, 2),
                  GroupedRows(ref->result.output, 2));
      }
    }
  }
}

TEST_F(ConsumingTest, SkipPartitionsCoverBackwardIndex) {
  SPJAPushdown push;
  push.skip_cols = {tpch::kLShipmode};
  auto skip_base = SPJAExec(*q1_, CaptureOptions::Inject(), &push);
  for (rid_t oid = 0; oid < skip_base.output.num_rows(); ++oid) {
    std::vector<rid_t> all;
    skip_base.skip_index.TraceAllInto(oid, &all);
    ASSERT_EQ(testing::Sorted(all), testing::Sorted(BackwardList(oid)));
  }
}

TEST_F(ConsumingTest, AutoResolvesSkippingFromArtifacts) {
  ConsumingSpec q1b = tpch::MakeQ1b(*db_, "MAIL", "NONE");
  LineageQuery compiled;
  TraceBuilder b = TraceBuilder::Backward(SkipSource(), "lineitem", {0});
  b.Consuming(q1b);  // strategy stays kAuto
  ASSERT_TRUE(b.Compile(&compiled).ok());
  EXPECT_EQ(compiled.strategy(), TraceStrategy::kSkipping);

  // Without matching artifacts, auto falls back to indexed.
  LineageQuery compiled2;
  TraceBuilder b2 = TraceBuilder::Backward(BaseSource(), "lineitem", {0});
  b2.Consuming(q1b);
  ASSERT_TRUE(b2.Compile(&compiled2).ok());
  EXPECT_EQ(compiled2.strategy(), TraceStrategy::kIndexed);
}

TEST_F(ConsumingTest, Q1cCubeMatchesReference) {
  ASSERT_TRUE(cube_base_->cube.enabled());
  ConsumingSpec by_tax;
  by_tax.group_by = {GroupExpr::Scale100(tpch::kLTax, "l_tax_x100")};
  by_tax.aggs = {AggSpec::Count("cnt"),
                 AggSpec::Sum(ScalarExpr::Col(tpch::kLQuantity), "sum_qty")};
  TraceSource src = TraceSource::FromSpja(*q1_, *cube_base_, "q1cube");
  for (rid_t oid = 0; oid < cube_base_->output.num_rows(); ++oid) {
    PlanResult pr;
    Run(src, oid, by_tax, TraceStrategy::kCube, &pr);
    auto ref = RunReference(db_->lineitem, BackwardList(oid), by_tax);
    ASSERT_EQ(GroupedRows(pr.output, 1), GroupedRows(ref->result.output, 1))
        << "group " << oid;
  }
}

TEST_F(ConsumingTest, CubeResultOutlivesCompiledQuery) {
  // Regression: the reshaped cube table is owned by the compiled query; a
  // retained PlanResult must keep it alive after builder + compiled query
  // are gone (ASan flags the dangling borrow otherwise).
  ConsumingSpec by_tax;
  by_tax.group_by = {GroupExpr::Scale100(tpch::kLTax, "l_tax_x100")};
  by_tax.aggs = {AggSpec::Count("cnt"),
                 AggSpec::Sum(ScalarExpr::Col(tpch::kLQuantity), "sum_qty")};
  PlanResult pr;
  {
    TraceBuilder b = TraceBuilder::Backward(
        TraceSource::FromSpja(*q1_, *cube_base_, "q1cube"), "lineitem", {0});
    b.Consuming(by_tax).Strategy(TraceStrategy::kCube);
    ASSERT_TRUE(b.Execute(CaptureOptions::Inject(), &pr).ok());
  }
  ASSERT_EQ(pr.owned_tables.size(), 1u);
  ASSERT_GT(pr.lineage.num_inputs(), 0u);
  const TableLineage& tl = pr.lineage.input(0);
  ASSERT_NE(tl.table, nullptr);
  EXPECT_EQ(tl.table->num_rows(), pr.output.num_rows());
  Table rows;
  EXPECT_TRUE(MaterializeRowsChecked(*tl.table, {0}, &rows).ok());
}

TEST_F(ConsumingTest, SkippingRequiresCoveredRelation) {
  // Q12 joins orders into lineitem; partition the *fact* backward lists by
  // l_orderkey (column 0 — the same index as o_orderkey, the coincidence
  // that used to fool code resolution for the orders relation).
  SPJAQuery q12 = tpch::MakeQ12(*db_);
  SPJAPushdown push;
  push.skip_cols = {tpch::kLOrderkey};
  auto res = SPJAExec(q12, CaptureOptions::Inject(), &push);
  ASSERT_GT(res.skip_dict.num_codes, 0u);
  TraceSource src = TraceSource::FromSpja(q12, res, "q12");
  const int64_t key = db_->lineitem.column(tpch::kLOrderkey).ints()[0];

  // Explicit skipping on a relation the skip index does not cover fails...
  LineageQuery lq;
  TraceBuilder bad = TraceBuilder::Backward(src, "orders", {0});
  bad.Filter(Predicate::Int(tpch::kOOrderkey, CmpOp::kEq, key))
      .GroupBy(GroupExpr::Raw(tpch::kOOrderkey, "k"))
      .Agg(AggSpec::Count("n"))
      .Strategy(TraceStrategy::kSkipping);
  EXPECT_FALSE(bad.Compile(&lq).ok());

  // ...and auto falls back to indexed instead of scanning fact partitions
  // as orders rows.
  TraceBuilder auto_b = TraceBuilder::Backward(src, "orders", {0});
  auto_b.Filter(Predicate::Int(tpch::kOOrderkey, CmpOp::kEq, key))
      .GroupBy(GroupExpr::Raw(tpch::kOOrderkey, "k"))
      .Agg(AggSpec::Count("n"));
  ASSERT_TRUE(auto_b.Compile(&lq).ok());
  EXPECT_EQ(lq.strategy(), TraceStrategy::kIndexed);

  // On the covered (fact) relation, skipping still resolves.
  TraceBuilder good = TraceBuilder::Backward(src, "lineitem", {0});
  good.Filter(Predicate::Int(tpch::kLOrderkey, CmpOp::kEq, key))
      .GroupBy(GroupExpr::Raw(tpch::kLOrderkey, "k"))
      .Agg(AggSpec::Count("n"));
  ASSERT_TRUE(good.Compile(&lq).ok());
  EXPECT_EQ(lq.strategy(), TraceStrategy::kSkipping);
}

TEST_F(ConsumingTest, Q1cChainMatchesReferenceUnderEveryStrategy) {
  // Hop 1 (Q1b) under each strategy that captures fine-grained lineage;
  // hop 2 (Q1c) always consumes the retained hop-1 plan's composed lineage.
  ConsumingSpec q1b = tpch::MakeQ1b(*db_, "SHIP", "COLLECT COD");
  ConsumingSpec q1c = tpch::MakeQ1c(*db_, "SHIP", "COLLECT COD");
  const rid_t oid = 0;

  auto ref_q1b = RunReference(db_->lineitem, BackwardList(oid), q1b);
  ASSERT_GT(ref_q1b->result.output.num_rows(), 0u);
  auto ref_q1c = RunReference(db_->lineitem, ref_q1b->Backward(0), q1c);
  const Table& want = ref_q1c->result.output;
  ASSERT_GT(want.num_rows(), 0u);
  // Q1c adds l_tax (x100): all values in [0, 8].
  for (int64_t tax : want.column(2).ints()) {
    EXPECT_GE(tax, 0);
    EXPECT_LE(tax, 8);
  }

  for (TraceStrategy s : {TraceStrategy::kIndexed, TraceStrategy::kLazy,
                          TraceStrategy::kSkipping}) {
    SCOPED_TRACE(TraceStrategyName(s));
    PlanResult hop1;
    Run(s == TraceStrategy::kSkipping ? SkipSource() : BaseSource(), oid, q1b,
        s, &hop1);
    ASSERT_EQ(GroupedRows(hop1.output, 2),
              GroupedRows(ref_q1b->result.output, 2));
    ASSERT_EQ(LineitemBackward(hop1, 0), ref_q1b->Backward(0));

    // The chain: trace backward through the retained hop-1 plan.
    PlanResult hop2;
    TraceBuilder b2 = TraceBuilder::Backward(
        TraceSource::FromPlan(hop1, "q1b"), "lineitem", {0});
    b2.Consuming(q1c);
    ASSERT_TRUE(b2.Execute(CaptureOptions::Inject(), &hop2).ok());
    ASSERT_EQ(hop2.output.num_rows(), want.num_rows());
    for (rid_t r = 0; r < want.num_rows(); ++r) {
      ASSERT_EQ(testing::RowKey(hop2.output, r), testing::RowKey(want, r));
      ASSERT_EQ(LineitemBackward(hop2, r), ref_q1c->Backward(r))
          << "cell " << r;
    }
  }
}

TEST_F(ConsumingTest, EngineConsumingQueriesChainOverPlans) {
  tpch::Database db = tpch::Generate(0.005);
  SmokeEngine eng;
  ASSERT_TRUE(eng.CreateTable("lineitem", std::move(db.lineitem)).ok());
  const Table* lineitem = nullptr;
  ASSERT_TRUE(eng.GetTable("lineitem", &lineitem).ok());
  SPJAQuery q1 = tpch::MakeQ1(*db_);
  q1.fact = lineitem;
  ASSERT_TRUE(eng.ExecuteQuery("q1", q1).ok());

  ConsumingSpec q1a = tpch::MakeQ1a(*db_);
  TraceSource q1_src;
  ASSERT_TRUE(eng.MakeTraceSource("q1", &q1_src).ok());
  TraceBuilder q1a_query =
      TraceBuilder::Backward(std::move(q1_src), "lineitem", {0});
  q1a_query.Consuming(q1a);
  ASSERT_TRUE(eng.ExecuteTraceQuery("q1a", q1a_query).ok());
  const Table* out = nullptr;
  ASSERT_TRUE(eng.GetResult("q1a", &out).ok());
  EXPECT_GT(out->num_rows(), 0u);

  // The retained consuming result is an ordinary plan: string-keyed lineage
  // queries and further consuming chains work against it.
  std::vector<rid_t> rids;
  ASSERT_TRUE(eng.Backward("q1a", "lineitem", {0}, &rids).ok());
  EXPECT_GT(rids.size(), 0u);

  ConsumingSpec q1c = tpch::MakeQ1c(*db_, "SHIP", "COLLECT COD");
  TraceSource q1a_src;
  ASSERT_TRUE(eng.MakeTraceSource("q1a", &q1a_src).ok());
  TraceBuilder q1c_query =
      TraceBuilder::Backward(std::move(q1a_src), "lineitem", {0});
  q1c_query.Consuming(q1c);
  Status st = eng.ExecuteTraceQuery("q1c", q1c_query);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_TRUE(eng.GetResult("q1c", &out).ok());
}

TEST_F(ConsumingTest, SelectionPushdownGatesBackwardCapture) {
  SPJAPushdown push;
  push.sel_fact = {Predicate::Double(tpch::kLTax, CmpOp::kLt, 0.03)};
  auto res = SPJAExec(*q1_, CaptureOptions::Inject(), &push);
  const auto& tax = db_->lineitem.column(tpch::kLTax).doubles();
  const auto& bw = res.lineage.input(0).backward.index();
  size_t kept = 0;
  for (size_t g = 0; g < bw.size(); ++g) {
    for (rid_t r : bw.list(g)) {
      ASSERT_LT(tax[r], 0.03);
      ++kept;
    }
  }
  // Some rows filtered out of lineage but the query result is unchanged.
  size_t plain = 0;
  const auto& plain_bw = base_->lineage.input(0).backward.index();
  for (size_t g = 0; g < plain_bw.size(); ++g) plain += plain_bw.list(g).size();
  EXPECT_LT(kept, plain);
  EXPECT_EQ(GroupedRows(res.output, 2), GroupedRows(base_->output, 2));
}

TEST_F(ConsumingTest, LazyBackwardMatchesIndexBackward) {
  for (rid_t oid = 0; oid < base_->output.num_rows(); ++oid) {
    auto lazy = LazyBackwardRids(*q1_, base_->output, oid);
    ASSERT_EQ(testing::Sorted(lazy), testing::Sorted(BackwardList(oid)));
  }
}

TEST_F(ConsumingTest, MaterializeRowsIsSecondaryIndexScan) {
  std::vector<rid_t> vec = BackwardList(0);
  Table rows = MaterializeRows(db_->lineitem, vec);
  ASSERT_EQ(rows.num_rows(), vec.size());
  EXPECT_EQ(std::get<int64_t>(rows.GetValue(0, tpch::kLOrderkey)),
            std::get<int64_t>(
                db_->lineitem.GetValue(vec[0], tpch::kLOrderkey)));
}

}  // namespace
}  // namespace smoke
