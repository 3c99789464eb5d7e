// Linked brushing over retained plans: any view shape with lineage on the
// shared relation participates (ROADMAP "Crossfilter on plans"), for plain
// group-by views the witness counts equal the classic crossfilter's BT
// strategy, and the seeds + link kernel is bit-identical to the
// Trace∘Trace plan it replaced — over raw and encoded indexes, and over
// served snapshots grown by appends.
#include "apps/plan_crossfilter.h"

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>

#include <gtest/gtest.h>

#include "apps/crossfilter.h"
#include "lineage/store/lineage_store.h"
#include "query/lineage_query.h"
#include "query/trace_builder.h"
#include "serve/serve_core.h"
#include "serve/session.h"
#include "test_util.h"

namespace smoke {
namespace {

constexpr int kA = 0;
constexpr int kB = 1;
constexpr int kV = 2;

Table MakeData(size_t n, uint32_t seed = 7) {
  Schema s;
  s.AddField("a", DataType::kInt64);
  s.AddField("b", DataType::kInt64);
  s.AddField("v", DataType::kFloat64);
  Table t(s);
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int64_t> da(0, 4), db(0, 9);
  std::uniform_real_distribution<double> dv(0.0, 10.0);
  for (size_t i = 0; i < n; ++i) t.AppendRow({da(rng), db(rng), dv(rng)});
  return t;
}

LogicalPlan HistogramPlan(const Table* t, int col) {
  PlanBuilder b;
  GroupBySpec spec;
  spec.keys = {col};
  spec.aggs = {AggSpec::Count("cnt")};
  int root = b.GroupBy(b.Scan(t, "base"), spec);
  LogicalPlan plan;
  SMOKE_CHECK(b.Build(root, &plan).ok());
  return plan;
}

/// Aggregate-over-aggregate: COUNT(*) per a, then COUNT(*) per cnt.
LogicalPlan RollupPlan(const Table* t) {
  PlanBuilder b;
  GroupBySpec per_a;
  per_a.keys = {kA};
  per_a.aggs = {AggSpec::Count("cnt")};
  int gb = b.GroupBy(b.Scan(t, "base"), per_a);
  GroupBySpec by_cnt;
  by_cnt.keys = {1};  // (a, cnt) -> cnt
  by_cnt.aggs = {AggSpec::Count("n_bins")};
  int root = b.GroupBy(gb, by_cnt);
  LogicalPlan plan;
  SMOKE_CHECK(b.Build(root, &plan).ok());
  return plan;
}

/// COUNT(*) per (a, b), then COUNT(*) per cnt: many (a, b) groups share a
/// count, so a rollup row's backward list concatenates several ascending
/// group lists and is not itself ascending.
LogicalPlan PairRollupPlan(const Table* t) {
  PlanBuilder b;
  GroupBySpec per_ab;
  per_ab.keys = {kA, kB};
  per_ab.aggs = {AggSpec::Count("cnt")};
  int gb = b.GroupBy(b.Scan(t, "base"), per_ab);
  GroupBySpec by_cnt;
  by_cnt.keys = {2};  // (a, b, cnt) -> cnt
  by_cnt.aggs = {AggSpec::Count("n_bins")};
  int root = b.GroupBy(gb, by_cnt);
  LogicalPlan plan;
  SMOKE_CHECK(b.Build(root, &plan).ok());
  return plan;
}

/// Join of two aggregates over a *shared* scan (a DAG): COUNT per a joined
/// with SUM(v) per a.
LogicalPlan JoinOfAggregatesPlan(const Table* t) {
  PlanBuilder b;
  int scan = b.Scan(t, "base");
  GroupBySpec counts;
  counts.keys = {kA};
  counts.aggs = {AggSpec::Count("cnt")};
  int gb1 = b.GroupBy(scan, counts);
  GroupBySpec sums;
  sums.keys = {kA};
  sums.aggs = {AggSpec::Sum(ScalarExpr::Col(kV), "sum_v")};
  int gb2 = b.GroupBy(scan, sums);
  JoinSpec join;
  join.left_key = 0;
  join.right_key = 0;
  join.pk_build = true;
  int root = b.HashJoin(gb1, gb2, join);
  LogicalPlan plan;
  SMOKE_CHECK(b.Build(root, &plan).ok());
  return plan;
}

/// Selection under a histogram: base rows failing the predicate have
/// kInvalidRid in the view's forward index.
LogicalPlan SelectGroupByPlan(const Table* t) {
  PlanBuilder b;
  int sel = b.Select(b.Scan(t, "base"),
                     {Predicate::Double(kV, CmpOp::kLt, 5.0)});
  GroupBySpec spec;
  spec.keys = {kB};
  spec.aggs = {AggSpec::Count("cnt")};
  LogicalPlan plan;
  SMOKE_CHECK(b.Build(b.GroupBy(sel, spec), &plan).ok());
  return plan;
}

/// Every view shape the differential tests cover, by name.
const char* const kShapes[] = {"va",      "vb",  "rollup",
                               "joinagg", "hot", "pair_rollup"};

LogicalPlan ShapePlan(const std::string& shape, const Table* t) {
  if (shape == "va") return HistogramPlan(t, kA);
  if (shape == "vb") return HistogramPlan(t, kB);
  if (shape == "rollup") return RollupPlan(t);
  if (shape == "joinagg") return JoinOfAggregatesPlan(t);
  if (shape == "hot") return SelectGroupByPlan(t);
  return PairRollupPlan(t);
}

using NamedResult = std::pair<std::string, const PlanResult*>;

/// The plan path the brush kernel replaced: Trace∘Trace executed as a plan,
/// rids and rows split off its output, counts read off its composed
/// backward lineage.
Status OracleBrush(const NamedResult& from, rid_t bar, const NamedResult& to,
                   LinkedBrush* out) {
  PlanResult pr;
  SMOKE_RETURN_NOT_OK(
      TraceBuilder::Backward(TraceSource::FromPlan(*from.second, from.first),
                             "base", {bar})
          .ThenForward(TraceSource::FromPlan(*to.second, to.first))
          .Execute(CaptureOptions::Inject(), &pr));
  SMOKE_RETURN_NOT_OK(SplitTraceRows(pr.output, &out->rids, &out->rows));
  int rel = pr.lineage.FindInput("base");
  if (rel < 0) return Status::InvalidArgument("oracle lost base lineage");
  const LineageIndex& bw = pr.lineage.input(static_cast<size_t>(rel)).backward;
  out->counts.clear();
  std::vector<rid_t> tmp;
  for (size_t p = 0; p < out->rids.size(); ++p) {
    tmp.clear();
    bw.TraceInto(static_cast<rid_t>(p), &tmp);
    out->counts.push_back(static_cast<int64_t>(tmp.size()));
  }
  return Status::OK();
}

void ExpectSameTable(const Table& got, const Table& want,
                     const std::string& what) {
  ASSERT_EQ(got.num_columns(), want.num_columns()) << what;
  ASSERT_EQ(got.num_rows(), want.num_rows()) << what;
  for (size_t c = 0; c < want.num_columns(); ++c) {
    const Field& gf = got.schema().field(c);
    const Field& wf = want.schema().field(c);
    EXPECT_EQ(gf.name, wf.name) << what;
    ASSERT_EQ(gf.type, wf.type) << what;
    switch (wf.type) {
      case DataType::kInt64:
        EXPECT_EQ(got.column(c).ints(), want.column(c).ints()) << what;
        break;
      case DataType::kFloat64:
        EXPECT_EQ(got.column(c).doubles(), want.column(c).doubles()) << what;
        break;
      case DataType::kString:
        EXPECT_EQ(got.column(c).strings(), want.column(c).strings()) << what;
        break;
    }
  }
}

void ExpectSameBrush(const LinkedBrush& got, const LinkedBrush& want,
                     const std::string& what) {
  EXPECT_EQ(got.rids, want.rids) << what;
  EXPECT_EQ(got.counts, want.counts) << what;
  ExpectSameTable(got.rows, want.rows, what);
}

/// Brushes every bar of every view into every other view through the
/// seeds + link kernel and through BrushLinkedPlans, comparing both with
/// the oracle. Returns the number of (bar, target) pairs checked.
size_t ExpectKernelMatchesOracle(const std::vector<NamedResult>& views) {
  size_t checked = 0;
  for (const NamedResult& from : views) {
    const size_t bars = from.second->output.num_rows();
    for (rid_t bar = 0; bar < bars; ++bar) {
      std::vector<rid_t> seeds;
      EXPECT_TRUE(BrushSeeds(*from.second, from.first, bar, "base", &seeds)
                      .ok());
      for (const NamedResult& to : views) {
        if (to.first == from.first) continue;
        const std::string what =
            from.first + "[" + std::to_string(bar) + "] -> " + to.first;
        LinkedBrush want, linked, one;
        Status st = OracleBrush(from, bar, to, &want);
        EXPECT_TRUE(st.ok()) << what << ": " << st.ToString();
        st = LinkBrushSeeds(seeds, "base", *to.second, to.first, &linked);
        EXPECT_TRUE(st.ok()) << what << ": " << st.ToString();
        ExpectSameBrush(linked, want, what);
        st = BrushLinkedPlans(*from.second, from.first, bar, "base",
                              *to.second, to.first, CaptureOptions::Inject(),
                              &one);
        EXPECT_TRUE(st.ok()) << what << ": " << st.ToString();
        ExpectSameBrush(one, want, what);
        ++checked;
      }
    }
  }
  return checked;
}

class PlanCrossfilterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = MakeData(5000);
    session_ = std::make_unique<PlanCrossfilter>("base");
    ASSERT_TRUE(session_->AddView("va", HistogramPlan(&data_, kA)).ok());
    ASSERT_TRUE(session_->AddView("vb", HistogramPlan(&data_, kB)).ok());
    ASSERT_TRUE(session_->AddView("rollup", RollupPlan(&data_)).ok());
    ASSERT_TRUE(session_->AddView("joinagg", JoinOfAggregatesPlan(&data_)).ok());
    ASSERT_TRUE(session_->AddView("hot", SelectGroupByPlan(&data_)).ok());
    ASSERT_TRUE(session_->AddView("pair_rollup", PairRollupPlan(&data_)).ok());
  }

  Table data_;
  std::unique_ptr<PlanCrossfilter> session_;
};

TEST_F(PlanCrossfilterTest, GroupByViewsMatchClassicCrossfilterBT) {
  // The classic per-view implementation with the BT strategy is the
  // reference for simple histogram views.
  Crossfilter classic(data_, {kA, kB});
  classic.Initialize(Crossfilter::Strategy::kBT);

  const Table* va = nullptr;
  ASSERT_TRUE(session_->ViewOutput("va", &va).ok());
  ASSERT_EQ(va->num_rows(), classic.NumBars(0));

  for (size_t bar = 0; bar < classic.NumBars(0); ++bar) {
    // Group-by plans emit bins in first-encounter order, like the classic
    // session — row `bar` of the plan view is bar `bar` of the classic one.
    ASSERT_EQ(va->column(0).ints()[bar], classic.BarValue(0, bar));

    std::map<std::string, PlanCrossfilter::Linked> brush;
    ASSERT_TRUE(session_->Brush("va", static_cast<rid_t>(bar), &brush).ok());
    auto classic_counts = classic.Brush(0, bar);

    const auto& linked = brush.at("vb");
    ASSERT_EQ(linked.rids.size(), linked.counts.size());
    int64_t total = 0;
    for (size_t i = 0; i < linked.rids.size(); ++i) {
      EXPECT_EQ(linked.counts[i], classic_counts[1][linked.rids[i]])
          << "bar " << bar << " linked row " << i;
      total += linked.counts[i];
    }
    // Every nonzero classic bar is linked, so totals agree with the brushed
    // bar's cardinality.
    EXPECT_EQ(total, classic.BarCount(0, bar));
    int64_t classic_total = 0;
    for (int64_t c : classic_counts[1]) classic_total += c;
    EXPECT_EQ(total, classic_total);
  }
}

TEST_F(PlanCrossfilterTest, NonSpjaViewsParticipateInBrushing) {
  const Table* va = nullptr;
  ASSERT_TRUE(session_->ViewOutput("va", &va).ok());

  std::map<std::string, PlanCrossfilter::Linked> brush;
  ASSERT_TRUE(session_->Brush("va", 0, &brush).ok());
  const int64_t bar_count = va->column(1).ints()[0];

  // Rollup: every base row of the brushed bar reaches exactly one rollup
  // output, so witness counts sum to the bar cardinality.
  const auto& rollup = brush.at("rollup");
  EXPECT_GT(rollup.rids.size(), 0u);
  int64_t rollup_total = 0;
  for (int64_t c : rollup.counts) rollup_total += c;
  EXPECT_EQ(rollup_total, bar_count);

  // Join of aggregates: the brushed bar's rows share one `a` value, so they
  // link to exactly one join output row, with full multiplicity.
  const auto& joined = brush.at("joinagg");
  ASSERT_EQ(joined.rids.size(), 1u);
  EXPECT_EQ(joined.counts[0], bar_count);
  EXPECT_EQ(joined.rows.num_rows(), 1u);

  // Brushing *from* the rollup (a retained non-SPJA plan) works too: the
  // rollup bin covering bar 0's count links back to histogram bars.
  std::map<std::string, PlanCrossfilter::Linked> back;
  ASSERT_TRUE(session_->Brush("rollup", 0, &back).ok());
  const auto& va_linked = back.at("va");
  EXPECT_GT(va_linked.rids.size(), 0u);
  const Table* rollup_out = nullptr;
  ASSERT_TRUE(session_->ViewOutput("rollup", &rollup_out).ok());
  // Each linked va bar is one of the bins aggregated into this rollup row:
  // its count must equal the rollup row's bin cardinality (the key).
  const int64_t bin_size = rollup_out->column(0).ints()[0];
  for (size_t i = 0; i < va_linked.rids.size(); ++i) {
    EXPECT_EQ(va_linked.counts[i], bin_size);
  }
}

TEST_F(PlanCrossfilterTest, RejectsViewsWithoutSharedLineage) {
  PlanCrossfilter other("elsewhere");
  EXPECT_FALSE(other.AddView("va", HistogramPlan(&data_, kA)).ok());

  // Pruned capture (no forward) is rejected up front, not at brush time.
  CaptureOptions no_fwd = CaptureOptions::Inject();
  no_fwd.capture_forward = false;
  PlanCrossfilter session("base");
  EXPECT_FALSE(session.AddView("va", HistogramPlan(&data_, kA), no_fwd).ok());

  EXPECT_FALSE(session_->Brush("nope", 0, nullptr).ok());
}


/// Executes every shape over `data`, encoding its lineage under `codec`.
std::vector<PlanResult> ExecuteShapes(const Table& data, LineageCodec codec) {
  std::vector<PlanResult> results;
  for (const char* shape : kShapes) {
    PlanResult pr;
    SMOKE_CHECK(
        ExecutePlan(ShapePlan(shape, &data), CaptureOptions::Inject(), &pr)
            .ok());
    EncodeQueryLineage(&pr.lineage, codec);
    results.push_back(std::move(pr));
  }
  return results;
}

class PlanCrossfilterCodecTest
    : public ::testing::TestWithParam<LineageCodec> {};

TEST_P(PlanCrossfilterCodecTest, KernelMatchesTracePlanOracle) {
  const Table data = MakeData(5000);
  const std::vector<PlanResult> results = ExecuteShapes(data, GetParam());
  std::vector<NamedResult> views;
  for (size_t i = 0; i < results.size(); ++i) {
    views.emplace_back(kShapes[i], &results[i]);
  }
  // The Select→GroupBy view's forward index carries kInvalidRid entries,
  // and the adaptive codec actually re-encodes the indexes.
  const TableLineage& hot = results[4].lineage.input(0);
  EXPECT_LT(hot.forward.TotalEdges(), data.num_rows());
  EXPECT_EQ(hot.forward.encoded(), GetParam() == LineageCodec::kAdaptive);
  EXPECT_GT(ExpectKernelMatchesOracle(views), 100u);
}

TEST_P(PlanCrossfilterCodecTest, ServedSnapshotAfterAppendsMatchesOracle) {
  ServeOptions opts;
  opts.num_threads = 1;
  opts.view_capture.lineage_codec = GetParam();
  ServeCore core("base", opts);
  ASSERT_TRUE(core.CreateTable("base", MakeData(3000)).ok());
  for (const char* shape : kShapes) {
    ASSERT_TRUE(core.DefineView(shape, [shape](const SmokeEngine& engine,
                                               LogicalPlan* plan) {
                      const Table* t = nullptr;
                      SMOKE_RETURN_NOT_OK(engine.GetTable("base", &t));
                      *plan = ShapePlan(shape, t);
                      return Status::OK();
                    }).ok());
  }
  ASSERT_TRUE(core.Start().ok());
  ASSERT_TRUE(core.AppendRows("base", MakeData(400, 11)).ok());
  ASSERT_TRUE(core.AppendRows("base", MakeData(300, 12)).ok());
  ASSERT_EQ(core.CurrentVersion(), 3u);

  ServeCore::SnapshotRef ref = core.AcquireSnapshot();
  std::vector<NamedResult> views;
  for (const std::string& name : ref.snapshot->views) {
    const PlanResult* pr = nullptr;
    ASSERT_TRUE(ref.snapshot->engine.GetPlanResult(name, &pr).ok());
    // The refreshed indexes cover the appended rows.
    EXPECT_EQ(pr->lineage.input(0).forward.size(), 3700u) << name;
    views.emplace_back(name, pr);
  }
  EXPECT_GT(ExpectKernelMatchesOracle(views), 100u);

  // The served brush is the same kernel: every entry equals the oracle.
  std::shared_ptr<ServeSession> session;
  ASSERT_TRUE(core.OpenSession("s", &session).ok());
  for (const NamedResult& from : views) {
    for (rid_t bar = 0; bar < from.second->output.num_rows(); ++bar) {
      ServeSession::BrushResult got;
      ASSERT_TRUE(session->Brush(from.first, bar, &got).ok());
      ASSERT_EQ(got.snapshot_version, 3u);
      ASSERT_EQ(got.views.size(), views.size() - 1);
      for (const NamedResult& to : views) {
        if (to.first == from.first) continue;
        LinkedBrush want;
        ASSERT_TRUE(OracleBrush(from, bar, to, &want).ok());
        ExpectSameBrush(got.views.at(to.first), want,
                        from.first + " -> " + to.first);
      }
    }
  }
  ASSERT_TRUE(core.CloseSession("s").ok());
}

INSTANTIATE_TEST_SUITE_P(Codecs, PlanCrossfilterCodecTest,
                         ::testing::Values(LineageCodec::kRaw,
                                           LineageCodec::kAdaptive));

TEST_F(PlanCrossfilterTest, SessionBrushMatchesTracePlanOracle) {
  const std::vector<PlanResult> results =
      ExecuteShapes(data_, LineageCodec::kRaw);
  std::vector<NamedResult> views;
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(session_->ViewNames()[i], kShapes[i]);
    views.emplace_back(kShapes[i], &results[i]);
  }
  for (const NamedResult& from : views) {
    for (rid_t bar = 0; bar < from.second->output.num_rows(); ++bar) {
      std::map<std::string, PlanCrossfilter::Linked> brush;
      ASSERT_TRUE(session_->Brush(from.first, bar, &brush).ok());
      ASSERT_EQ(brush.size(), views.size() - 1);
      for (const NamedResult& to : views) {
        if (to.first == from.first) continue;
        LinkedBrush want;
        ASSERT_TRUE(OracleBrush(from, bar, to, &want).ok());
        ExpectSameBrush(brush.at(to.first), want,
                        from.first + " -> " + to.first);
      }
    }
  }
}

TEST_F(PlanCrossfilterTest, SeedsAreTheDeduplicatedBackwardList) {
  const std::vector<PlanResult> results =
      ExecuteShapes(data_, LineageCodec::kAdaptive);
  size_t with_duplicates = 0, unordered = 0;
  for (const PlanResult& pr : results) {
    for (rid_t bar = 0; bar < pr.output.num_rows(); ++bar) {
      std::vector<rid_t> seeds, all, deduped;
      ASSERT_TRUE(BrushSeeds(pr, "view", bar, "base", &seeds).ok());
      ASSERT_TRUE(BackwardRidsChecked(pr.lineage, "base", {bar},
                                      /*dedup=*/false, &all)
                      .ok());
      ASSERT_TRUE(BackwardRidsChecked(pr.lineage, "base", {bar},
                                      /*dedup=*/true, &deduped)
                      .ok());
      EXPECT_EQ(seeds, deduped);
      with_duplicates += all.size() != deduped.size();
      unordered += !std::is_sorted(seeds.begin(), seeds.end());
    }
  }
  // The join of aggregates reaches every base row twice, and pair_rollup
  // rows list several groups in turn, so the hashed (not only the
  // already-ascending) path runs, and seed order is not rid order.
  EXPECT_GT(with_duplicates, 0u);
  EXPECT_GT(unordered, 0u);
}

TEST_F(PlanCrossfilterTest, OutOfRangeBrushIsAStatus) {
  const Table* va = nullptr;
  ASSERT_TRUE(session_->ViewOutput("va", &va).ok());
  std::map<std::string, PlanCrossfilter::Linked> brush;
  EXPECT_FALSE(
      session_->Brush("va", static_cast<rid_t>(va->num_rows()), &brush).ok());
  EXPECT_FALSE(session_->Brush("va", kInvalidRid, &brush).ok());
  EXPECT_TRUE(session_->Brush("va", 0, &brush).ok());
}

TEST(PlanCrossfilterRobustnessTest, BrokenLineageIsAStatus) {
  const Table data = MakeData(2000);
  auto run = [](const LogicalPlan& plan, const CaptureOptions& opts) {
    PlanResult pr;
    SMOKE_CHECK(ExecutePlan(plan, opts, &pr).ok());
    return pr;
  };
  const PlanResult from = run(HistogramPlan(&data, kA), CaptureOptions::Inject());
  const PlanResult to = run(HistogramPlan(&data, kB), CaptureOptions::Inject());
  LinkedBrush out;
  ASSERT_TRUE(BrushLinkedPlans(from, "va", 0, "base", to, "vb",
                               CaptureOptions::Inject(), &out)
                  .ok());

  // A target whose forward index is shorter than a traced base rid (its
  // lineage covers an older, smaller version of the relation).
  const Table prefix = MakeData(100);
  const PlanResult short_to =
      run(HistogramPlan(&prefix, kB), CaptureOptions::Inject());
  Status st = BrushLinkedPlans(from, "va", 0, "base", short_to, "vb",
                               CaptureOptions::Inject(), &out);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("out of range"), std::string::npos);

  // Evicted lineage, on either side of the brush.
  PlanResult evicted = run(HistogramPlan(&data, kB), CaptureOptions::Inject());
  EvictQueryLineage(&evicted.lineage);
  st = BrushLinkedPlans(from, "va", 0, "base", evicted, "vb",
                        CaptureOptions::Inject(), &out);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("evicted"), std::string::npos);
  st = BrushLinkedPlans(evicted, "vb", 0, "base", to, "va",
                        CaptureOptions::Inject(), &out);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("evicted"), std::string::npos);

  // Pruned forward capture, and a relation the views never scanned.
  CaptureOptions no_fwd = CaptureOptions::Inject();
  no_fwd.capture_forward = false;
  const PlanResult pruned = run(HistogramPlan(&data, kB), no_fwd);
  EXPECT_FALSE(BrushLinkedPlans(from, "va", 0, "base", pruned, "vb",
                                CaptureOptions::Inject(), &out)
                   .ok());
  EXPECT_EQ(BrushLinkedPlans(from, "va", 0, "elsewhere", to, "vb",
                             CaptureOptions::Inject(), &out)
                .code(),
            Status::Code::kNotFound);
}

TEST(PlanCrossfilterRobustnessTest, FailedServedBrushLeavesStatsUnchanged) {
  ServeCore core("base");
  ASSERT_TRUE(core.CreateTable("base", MakeData(1000)).ok());
  for (int col : {kA, kB}) {
    ASSERT_TRUE(core.DefineView(col == kA ? "va" : "vb",
                                [col](const SmokeEngine& engine,
                                      LogicalPlan* plan) {
                                  const Table* t = nullptr;
                                  SMOKE_RETURN_NOT_OK(
                                      engine.GetTable("base", &t));
                                  *plan = HistogramPlan(t, col);
                                  return Status::OK();
                                })
                    .ok());
  }
  ASSERT_TRUE(core.Start().ok());
  std::shared_ptr<ServeSession> session;
  ASSERT_TRUE(core.OpenSession("s", &session).ok());

  ServeSession::BrushResult got;
  ASSERT_TRUE(session->Brush("va", 0, &got).ok());
  EXPECT_EQ(session->GetStats().brushes, 1u);
  EXPECT_FALSE(session->Brush("va", 5, &got).ok());  // 5 bars: 0..4
  EXPECT_FALSE(session->Brush("va", kInvalidRid, &got).ok());
  EXPECT_FALSE(session->Brush("nope", 0, &got).ok());
  EXPECT_EQ(session->GetStats().brushes, 1u);
  ASSERT_TRUE(core.CloseSession("s").ok());
}

TEST_F(PlanCrossfilterTest, ConcurrentBrushesMatchSerial) {
  // Serial reference: every bar of every view.
  struct Op {
    std::string view;
    rid_t bar;
    std::map<std::string, PlanCrossfilter::Linked> want;
  };
  std::vector<Op> ops;
  for (const std::string& name : session_->ViewNames()) {
    const Table* out = nullptr;
    ASSERT_TRUE(session_->ViewOutput(name, &out).ok());
    for (rid_t bar = 0; bar < out->num_rows(); ++bar) {
      Op op{name, bar, {}};
      ASSERT_TRUE(session_->Brush(name, bar, &op.want).ok());
      ops.push_back(std::move(op));
    }
  }

  auto same = [](const std::map<std::string, PlanCrossfilter::Linked>& a,
                 const std::map<std::string, PlanCrossfilter::Linked>& b) {
    if (a.size() != b.size()) return false;
    for (const auto& [name, la] : a) {
      auto it = b.find(name);
      if (it == b.end()) return false;
      const PlanCrossfilter::Linked& lb = it->second;
      if (la.rids != lb.rids || la.counts != lb.counts ||
          testing::RowSet(la.rows) != testing::RowSet(lb.rows)) {
        return false;
      }
    }
    return true;
  };

  constexpr int kThreads = 4;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        // Each thread walks the ops from a different offset, so brushes of
        // different views overlap in time.
        for (size_t k = 0; k < ops.size(); ++k) {
          const Op& op = ops[(k + static_cast<size_t>(t) * 7) % ops.size()];
          std::map<std::string, PlanCrossfilter::Linked> got;
          if (!session_->Brush(op.view, op.bar, &got).ok()) {
            failures++;
          } else if (!same(got, op.want)) {
            mismatches++;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace smoke
