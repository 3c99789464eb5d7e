// Trace lineage against the brute-force definition. Every trace path —
// backward (dedup on/off, repeated seeds), forward, linked, fused and
// literal chains, pushed-down filters, consuming queries, chained handles,
// the evicted-index fallback and retained trace queries — must emit, per
// position and in order, the lineage the definition gives: backward[i] is
// the relation rows behind output i, forward[r] the ascending distinct
// outputs whose backward list holds r. Also: a trace's lineage is sized by
// the traced rids, not by the relation, and corrupt indexes holding rids
// beyond their relation fail with InvalidArgument instead of writing out
// of bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/smoke_engine.h"
#include "query/lineage_query.h"
#include "query/trace_builder.h"
#include "workloads/zipf_table.h"

namespace smoke {
namespace {

using Lists = std::vector<std::vector<rid_t>>;

constexpr int kK = 0;  // sales.k: 12 groups
constexpr int kC = 1;  // sales.c: 5 categories
constexpr int kV = 2;  // sales.v: [0, 100)

Table MakeSales(size_t n) {
  Schema s;
  s.AddField("k", DataType::kInt64);
  s.AddField("c", DataType::kInt64);
  s.AddField("v", DataType::kFloat64);
  Table t(s);
  uint64_t x = 12345;
  for (size_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    t.AppendRow({static_cast<int64_t>((x >> 33) % 12),
                 static_cast<int64_t>((x >> 21) % 5),
                 static_cast<double>((x >> 40) % 100)});
  }
  return t;
}

SPJAQuery GroupQuery(const Table* sales, int col) {
  SPJAQuery q;
  q.fact = sales;
  q.fact_name = "sales";
  q.group_by = {ColRef::Fact(col)};
  q.aggs = {AggSpec::Count("cnt")};
  return q;
}

/// Per-position expansion of an index, in stored order.
Lists Expand(const LineageIndex& idx) {
  Lists lists(idx.size());
  for (size_t p = 0; p < idx.size(); ++p) {
    idx.TraceInto(static_cast<rid_t>(p), &lists[p]);
  }
  return lists;
}

/// forward[r]: ascending distinct i whose backward[i] holds r.
Lists BruteForward(const Lists& backward, size_t rows) {
  Lists fw(rows);
  for (size_t i = 0; i < backward.size(); ++i) {
    for (rid_t r : backward[i]) {
      if (fw[r].empty() || fw[r].back() != i) {
        fw[r].push_back(static_cast<rid_t>(i));
      }
    }
  }
  return fw;
}

/// backward[i] = {rids[i]}: output i is relation row rids[i].
Lists OneToOne(const std::vector<rid_t>& rids) {
  Lists bw;
  for (rid_t r : rids) bw.push_back({r});
  return bw;
}

std::vector<rid_t> FirstOccurrences(const std::vector<rid_t>& rids) {
  std::vector<rid_t> out;
  std::set<rid_t> seen;
  for (rid_t r : rids) {
    if (seen.insert(r).second) out.push_back(r);
  }
  return out;
}

/// Checks `lin`'s lineage on `relation` (`rows` rows) against `backward`
/// and its brute-force inverse.
void ExpectLineage(const QueryLineage& lin, const std::string& relation,
                   const Lists& backward, size_t rows) {
  const int i = lin.FindInput(relation);
  ASSERT_GE(i, 0) << relation;
  const TableLineage& tl = lin.input(static_cast<size_t>(i));
  EXPECT_EQ(Expand(tl.backward), backward) << relation << " backward";
  ASSERT_EQ(tl.forward.size(), rows) << relation;
  EXPECT_EQ(Expand(tl.forward), BruteForward(backward, rows))
      << relation << " forward";
}

/// Executes `b` and splits the output into traced rids.
std::vector<rid_t> RunTrace(const TraceBuilder& b, PlanResult* pr) {
  std::vector<rid_t> rids;
  Table rows;
  EXPECT_TRUE(b.Execute(CaptureOptions::Inject(), pr).ok());
  EXPECT_TRUE(SplitTraceRows(pr->output, &rids, &rows).ok());
  return rids;
}

class TraceLineageTest : public ::testing::TestWithParam<LineageCodec> {
 protected:
  static constexpr size_t kRows = 3000;

  void SetUp() override {
    ASSERT_TRUE(engine_.CreateTable("sales", MakeSales(kRows)).ok());
    ASSERT_TRUE(engine_.GetTable("sales", &sales_).ok());
    CaptureOptions opts = CaptureOptions::Inject();
    opts.lineage_codec = GetParam();
    ASSERT_TRUE(
        engine_.ExecuteQuery("by_k", GroupQuery(sales_, kK), opts).ok());
    ASSERT_TRUE(
        engine_.ExecuteQuery("by_c", GroupQuery(sales_, kC), opts).ok());
  }

  /// The base query's captured lists, decoded (the reference's input).
  Lists BaseLists(const std::string& query, bool backward) const {
    TraceSource src;
    EXPECT_TRUE(engine_.MakeTraceSource(query, &src).ok());
    const TableLineage& tl = src.lineage->input(0);
    return Expand(backward ? tl.backward : tl.forward);
  }

  /// Concatenated backward lists of `seeds` in `query`.
  std::vector<rid_t> BruteBackward(const std::string& query,
                                   const std::vector<rid_t>& seeds,
                                   bool dedup) const {
    const Lists bw = BaseLists(query, true);
    std::vector<rid_t> rids;
    for (rid_t s : seeds) rids.insert(rids.end(), bw[s].begin(), bw[s].end());
    return dedup ? FirstOccurrences(rids) : rids;
  }

  TraceSource Source(const std::string& query) const {
    TraceSource src;
    EXPECT_TRUE(engine_.MakeTraceSource(query, &src).ok());
    return src;
  }

  size_t Groups(const std::string& query) const {
    const Table* t = nullptr;
    EXPECT_TRUE(engine_.GetResult(query, &t).ok());
    return t->num_rows();
  }

  SmokeEngine engine_;
  const Table* sales_ = nullptr;
};

TEST_P(TraceLineageTest, BackwardDedupOnAndOff) {
  // Repeated seeds without dedup give forward keys with several values;
  // seeds out of order give unsorted rids.
  const std::vector<std::vector<rid_t>> seed_sets = {
      {3}, {3, 3}, {7, 2}, {5, 1, 5}};
  for (const auto& seeds : seed_sets) {
    for (bool dedup : {false, true}) {
      TraceResult tr;
      ASSERT_TRUE(
          engine_.TraceBackward("by_k", "sales", seeds, &tr, dedup).ok());
      const std::vector<rid_t> want = BruteBackward("by_k", seeds, dedup);
      ASSERT_EQ(tr.rids, want);
      ExpectLineage(tr.plan.lineage, "sales", OneToOne(want), kRows);
      EXPECT_EQ(tr.plan.lineage.input(0).forward.kind(),
                LineageIndex::Kind::kSparseIndex);
    }
  }
}

TEST_P(TraceLineageTest, Forward) {
  // Unsorted seeds spanning several groups, with repeats.
  const std::vector<rid_t> seeds = {2900, 17, 1500, 17, 4, 2999, 640};
  TraceResult tr;
  ASSERT_TRUE(engine_.TraceForward("by_k", "sales", seeds, &tr).ok());
  const Lists fw = BaseLists("by_k", false);
  std::vector<rid_t> want;
  for (rid_t s : seeds) want.insert(want.end(), fw[s].begin(), fw[s].end());
  want = FirstOccurrences(want);
  ASSERT_EQ(tr.rids, want);
  ExpectLineage(tr.plan.lineage, "by_k.out", OneToOne(want), Groups("by_k"));

  // Without dedup, repeated outputs give keys with several positions.
  PlanResult pr;
  const std::vector<rid_t> all = RunTrace(
      TraceBuilder::Forward(Source("by_k"), "sales", seeds).Dedup(false), &pr);
  ASSERT_EQ(all.size(), seeds.size());
  ExpectLineage(pr.lineage, "by_k.out", OneToOne(all), Groups("by_k"));
}

/// Linked brushing by_k -> sales -> by_c, by definition: output i's
/// backward list holds the seed rows (in seed order) whose forward list
/// reaches it.
Lists BruteLinked(const std::vector<rid_t>& seeds, const Lists& to_forward,
                  std::vector<rid_t>* rids) {
  std::map<rid_t, size_t> pos;
  Lists bw;
  rids->clear();
  for (rid_t s : seeds) {
    for (rid_t t : to_forward[s]) {
      auto [it, fresh] = pos.emplace(t, rids->size());
      if (fresh) {
        rids->push_back(t);
        bw.emplace_back();
      }
      bw[it->second].push_back(s);
    }
  }
  return bw;
}

TEST_P(TraceLineageTest, LinkedFusedAndLiteral) {
  const std::vector<rid_t> from = {6, 1};
  const std::vector<rid_t> seeds = BruteBackward("by_k", from, true);
  std::vector<rid_t> want;
  const Lists bw = BruteLinked(seeds, BaseLists("by_c", false), &want);

  TraceResult tr;
  ASSERT_TRUE(engine_.TraceLinked("by_k", from, "sales", "by_c", &tr).ok());
  ASSERT_EQ(tr.rids, want);
  ExpectLineage(tr.plan.lineage, "sales", bw, kRows);

  std::vector<LineageIndex::Kind> kinds;
  for (bool optimize : {true, false}) {
    PlanResult pr;
    const std::vector<rid_t> rids =
        RunTrace(TraceBuilder::Backward(Source("by_k"), "sales", from)
                     .ThenForward(Source("by_c"))
                     .Optimize(optimize),
                 &pr);
    EXPECT_EQ(pr.explain.HasRule("fuse_trace_hops"), optimize);
    ASSERT_EQ(rids, want) << "optimize=" << optimize;
    ExpectLineage(pr.lineage, "sales", bw, kRows);
    kinds.push_back(pr.lineage.input(0).forward.kind());
  }
  EXPECT_EQ(kinds[0], LineageIndex::Kind::kSparseIndex);
  EXPECT_EQ(kinds[0], kinds[1]);
}

TEST_P(TraceLineageTest, PushedDownFilter) {
  const std::vector<rid_t> from = {9, 0};
  std::vector<rid_t> want;
  for (rid_t r : BruteBackward("by_k", from, false)) {
    if (sales_->column(kV).doubles()[r] > 50.0) want.push_back(r);
  }
  for (bool optimize : {true, false}) {
    PlanResult pr;
    const std::vector<rid_t> rids = RunTrace(
        TraceBuilder::Backward(Source("by_k"), "sales", from)
            .Filter(Predicate::Double(kV, CmpOp::kGt, 50.0))
            .Optimize(optimize),
        &pr);
    ASSERT_EQ(rids, want) << "optimize=" << optimize;
    ExpectLineage(pr.lineage, "sales", OneToOne(want), kRows);
  }
}

TEST_P(TraceLineageTest, Consuming) {
  const std::vector<rid_t> from = {2, 11, 2};
  const std::vector<rid_t> traced = BruteBackward("by_k", from, false);
  const auto& c = sales_->column(kC).ints();
  const auto& v = sales_->column(kV).doubles();
  for (bool optimize : {true, false}) {
    PlanResult pr;
    ASSERT_TRUE(TraceBuilder::Backward(Source("by_k"), "sales", from)
                    .Filter(Predicate::Double(kV, CmpOp::kLt, 70.0))
                    .GroupBy(GroupExpr::Raw(kC, "cat"))
                    .Agg(AggSpec::Count("n"))
                    .Optimize(optimize)
                    .Execute(CaptureOptions::Inject(), &pr)
                    .ok());
    // Output group g holds the kept traced rows whose category is g's key,
    // in trace order.
    Lists bw(pr.output.num_rows());
    const auto& keys = pr.output.column(0).ints();
    for (rid_t r : traced) {
      if (!(v[r] < 70.0)) continue;
      for (size_t g = 0; g < keys.size(); ++g) {
        if (keys[g] == c[r]) bw[g].push_back(r);
      }
    }
    ExpectLineage(pr.lineage, "sales", bw, kRows);
    EXPECT_EQ(pr.lineage.input(0).forward.kind(),
              LineageIndex::Kind::kSparseIndex);
  }
}

TEST_P(TraceLineageTest, ChainedHandleForward) {
  TraceResult tr;
  ASSERT_TRUE(engine_.TraceBackward("by_k", "sales", {8, 3, 8}, &tr, false)
                  .ok());
  // Seeds: traced rows (some traced twice), plus one that is not traced.
  std::vector<rid_t> seeds = {tr.rids.back(), tr.rids[0], tr.rids[1]};
  for (rid_t r = 0; r < kRows; ++r) {
    if (std::find(tr.rids.begin(), tr.rids.end(), r) == tr.rids.end()) {
      seeds.push_back(r);
      break;
    }
  }
  std::vector<rid_t> want;
  for (rid_t s : seeds) {
    for (size_t i = 0; i < tr.rids.size(); ++i) {
      if (tr.rids[i] == s) want.push_back(static_cast<rid_t>(i));
    }
  }
  want = FirstOccurrences(want);
  PlanResult pr;
  ASSERT_TRUE(TraceBuilder::Forward(tr.AsSource("t"), "sales", seeds)
                  .Execute(CaptureOptions::Inject(), &pr)
                  .ok());
  // The endpoint rows carry the first trace's rid column; this trace's own
  // is the last one.
  std::vector<rid_t> rids;
  for (int64_t r : pr.output.column(pr.output.num_columns() - 1).ints()) {
    rids.push_back(static_cast<rid_t>(r));
  }
  ASSERT_EQ(rids, want);
  ExpectLineage(pr.lineage, "t.out", OneToOne(want), tr.rids.size());
}

TEST_P(TraceLineageTest, EvictedMultiSeedFallback) {
  SmokeEngine evicting;
  ASSERT_TRUE(evicting.CreateTable("sales", MakeSales(kRows)).ok());
  const Table* sales = nullptr;
  ASSERT_TRUE(evicting.GetTable("sales", &sales).ok());
  CaptureOptions opts = CaptureOptions::Inject();
  opts.lineage_codec = GetParam();
  opts.lineage_budget_bytes = 1;  // evicts every query with a lazy rewrite
  ASSERT_TRUE(evicting.ExecuteQuery("by_k", GroupQuery(sales, kK), opts).ok());
  ASSERT_GT(evicting.LineageMemoryStats().num_evicted, 0u);

  const std::vector<rid_t> seeds = {10, 4, 10};
  for (bool dedup : {false, true}) {
    TraceResult tr;
    ASSERT_TRUE(
        evicting.TraceBackward("by_k", "sales", seeds, &tr, dedup).ok());
    const std::vector<rid_t> want = BruteBackward("by_k", seeds, dedup);
    ASSERT_EQ(tr.rids, want);
    ExpectLineage(tr.plan.lineage, "sales", OneToOne(want), kRows);
  }
}

TEST_P(TraceLineageTest, RetainedTraceQuery) {
  CaptureOptions opts = CaptureOptions::Inject();
  opts.lineage_codec = LineageCodec::kAdaptive;
  ASSERT_TRUE(
      engine_
          .ExecuteTraceQuery(
              "t", TraceBuilder::Backward(Source("by_c"), "sales", {3, 0, 3}),
              opts)
          .ok());
  const PlanResult* pr = nullptr;
  ASSERT_TRUE(engine_.GetPlanResult("t", &pr).ok());
  std::vector<rid_t> rids;
  Table rows;
  ASSERT_TRUE(SplitTraceRows(pr->output, &rids, &rows).ok());
  const std::vector<rid_t> want = BruteBackward("by_c", {3, 0, 3}, false);
  ASSERT_EQ(rids, want);
  ExpectLineage(pr->lineage, "sales", OneToOne(want), kRows);
  // The retained result chains like any plan.
  std::vector<rid_t> back;
  ASSERT_TRUE(engine_.Backward("t", "sales", {5}, &back).ok());
  EXPECT_EQ(back, std::vector<rid_t>{want[5]});
}

INSTANTIATE_TEST_SUITE_P(Codecs, TraceLineageTest,
                         ::testing::Values(LineageCodec::kRaw,
                                           LineageCodec::kAdaptive),
                         [](const auto& info) {
                           return std::string(LineageCodecName(info.param));
                         });

// ---- size: a trace's lineage follows the traced rids ----

TEST(TraceLineageSize, OneRowBackwardIsSizedByItsRids) {
  Table t = MakeZipfTable(120000, 4000, 0.0);
  GroupBySpec spec;
  spec.keys = {zipf_table::kZ};
  spec.aggs = {AggSpec::Count("cnt")};
  PlanBuilder b;
  const int root = b.GroupBy(b.Scan(&t, "zipf"), spec);
  LogicalPlan plan;
  ASSERT_TRUE(b.Build(root, &plan).ok());
  SmokeEngine engine;
  ASSERT_TRUE(engine.ExecutePlan("g", plan, CaptureOptions::Inject()).ok());

  TraceResult tr;
  ASSERT_TRUE(engine.TraceBackward("g", "zipf", {7}, &tr).ok());
  ASSERT_FALSE(tr.rids.empty());
  EXPECT_LE(tr.plan.lineage.MemoryBytes(), 64 * tr.rids.size() + 4096);
}

// ---- bounds: corrupt indexes fail before any fragment is written ----

/// A relation of 10 rows and a 2-row source output whose lineage holds
/// rids beyond both: backward list 1 names relation row 99, forward list
/// 3 names output row 7.
class CorruptSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema s;
    s.AddField("x", DataType::kInt64);
    rel_ = Table(s);
    out_ = Table(s);
    for (int64_t i = 0; i < 10; ++i) rel_.AppendRow({i});
    for (int64_t i = 0; i < 2; ++i) out_.AppendRow({i});
    Build(&lineage_, &rel_);
    Build(&null_table_lineage_, nullptr);
  }

  void Build(QueryLineage* lin, const Table* table) {
    RidIndex bw(2), fw(10);
    for (rid_t r : {1, 3}) bw.Append(0, r);
    for (rid_t r : {2, 99, 2}) bw.Append(1, r);
    fw.Append(1, 0);
    fw.Append(2, 1);
    fw.Append(3, 7);
    TableLineage& tl = lin->AddInput("rel", table);
    tl.backward = LineageIndex::FromIndex(std::move(bw));
    tl.forward = LineageIndex::FromIndex(std::move(fw));
    lin->set_output_cardinality(2);
  }

  TraceSource Source(const QueryLineage& lin) const {
    TraceSource src;
    src.lineage = &lin;
    src.output = &out_;
    src.name = "corrupt";
    return src;
  }

  static void ExpectInvalid(const TraceBuilder& b, const char* what) {
    for (const CaptureOptions& opts :
         {CaptureOptions::Inject(), CaptureOptions::None()}) {
      PlanResult pr;
      const Status st = b.Execute(opts, &pr);
      EXPECT_EQ(st.code(), Status::Code::kInvalidArgument)
          << what << ": " << st.ToString();
    }
  }

  Table rel_, out_;
  QueryLineage lineage_, null_table_lineage_;
};

TEST_F(CorruptSourceTest, SingleHop) {
  for (bool dedup : {false, true}) {
    ExpectInvalid(
        TraceBuilder::Backward(Source(lineage_), "rel", {1}).Dedup(dedup),
        "single hop");
  }
}

TEST_F(CorruptSourceTest, PushedFilter) {
  for (bool optimize : {true, false}) {
    for (bool dedup : {false, true}) {
      ExpectInvalid(TraceBuilder::Backward(Source(lineage_), "rel", {1})
                        .Filter(Predicate::Int(0, CmpOp::kGe, 0))
                        .Dedup(dedup)
                        .Optimize(optimize),
                    "pushed filter");
    }
  }
}

TEST_F(CorruptSourceTest, FusedHop) {
  for (bool optimize : {true, false}) {
    // The first hop reaches relation row 99.
    ExpectInvalid(TraceBuilder::Backward(Source(lineage_), "rel", {1})
                      .ThenForward(Source(lineage_))
                      .Optimize(optimize),
                  "first hop");
    // The second hop reaches output row 7 of a 2-row output.
    ExpectInvalid(TraceBuilder::Backward(Source(lineage_), "rel", {0})
                      .ThenForward(Source(lineage_))
                      .Optimize(optimize),
                  "second hop");
  }
}

TEST_F(CorruptSourceTest, ForwardBeyondOutput) {
  for (bool dedup : {false, true}) {
    ExpectInvalid(
        TraceBuilder::Forward(Source(lineage_), "rel", {3, 1}).Dedup(dedup),
        "forward");
  }
}

TEST_F(CorruptSourceTest, NullRelationTable) {
  for (bool dedup : {false, true}) {
    ExpectInvalid(TraceBuilder::Backward(Source(null_table_lineage_), "rel",
                                         {1})
                      .Dedup(dedup),
                  "null table");
    ExpectInvalid(TraceBuilder::Forward(Source(null_table_lineage_), "rel",
                                        {3, 1})
                      .Dedup(dedup),
                  "null table forward");
  }
  // The rids-only call has no table to check against; it dedups over the
  // list itself.
  std::vector<rid_t> rids;
  ASSERT_TRUE(
      BackwardRidsChecked(null_table_lineage_, "rel", {1}, true, &rids).ok());
  EXPECT_EQ(rids, (std::vector<rid_t>{2, 99}));
}

TEST(TracedForwardIndexTest, InvertsAndValidates) {
  LineageIndex fw;
  ASSERT_TRUE(TracedForwardIndex({5, 2, 5, 9, 2, 5}, 10, &fw).ok());
  ASSERT_EQ(fw.kind(), LineageIndex::Kind::kSparseIndex);
  EXPECT_EQ(fw.size(), 10u);
  EXPECT_EQ(fw.TotalEdges(), 6u);
  Lists want(10);
  want[2] = {1, 4};
  want[5] = {0, 2, 5};
  want[9] = {3};
  EXPECT_EQ(Expand(fw), want);
  EXPECT_EQ(Expand(fw), BruteForward(OneToOne({5, 2, 5, 9, 2, 5}), 10));

  ASSERT_TRUE(TracedForwardIndex({0, 0, 3, 7}, 8, &fw).ok());  // ascending
  EXPECT_EQ(Expand(fw), BruteForward(OneToOne({0, 0, 3, 7}), 8));

  EXPECT_EQ(TracedForwardIndex({1, 8}, 8, &fw).code(),
            Status::Code::kInvalidArgument);
}

}  // namespace
}  // namespace smoke
