// Workload drilldown_trace: closed loop, one client, lineage queries over
// TPC-H SF 0.1 results retained under Smoke-I (paper Figures 9-12).
//
// A fixed, seeded mix of 1,000 operations, in these exact proportions in
// every block of 20 and shuffled within the blocks:
//   40 %  one-row TraceBackward on Q3/Q10, materializing lineitem rows
//   20 %  TraceForward of 64 random lineitem rids into Q3/Q12
//   20 %  TraceLinked Q10 -> lineitem -> Q3
//   15 %  Q1b drill-down: TraceBuilder::Backward(Q1, group).Consuming(Q1b)
//         through ExecuteTraceQuery, then DropResult
//    5 %  whole-group TraceBackward on a Q1 group of about 25 % of lineitem
// The one-row traces measure the fixed cost per trace; the whole-group
// traces measure decode and materialization and set the tail. The
// calibration kernel runs before every fourth op; cost_cal_x divides each
// block's mean op time by its kernel runs' median.
#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <set>

#include "core/smoke_engine.h"
#include "query/trace_builder.h"
#include "tpch_forms.h"
#include "workloads.h"

namespace smokebench {
namespace {

using smoke::rid_t;
using smoke::Status;

constexpr size_t kMixOps = 1000;
constexpr size_t kBlockOps = 20;    // every block holds the exact proportions
constexpr size_t kWarmupOps = 100;  // the warm-up pass: the mix's first 10 %
constexpr size_t kForwardSeeds = 64;
// The calibration kernel: about lineitem's row count, run before every
// fourth op.
constexpr size_t kCalibrationRows = 600000;
constexpr size_t kCalibrationEvery = 4;

enum class Kind { kBackward, kForward, kLinked, kQ1b, kGroup };
const char* const kKindNames[] = {"backward", "forward", "linked", "q1b",
                                  "group"};

struct Op {
  Kind kind = Kind::kBackward;
  std::string query;  ///< traced query (linked: the source, Q10)
  std::vector<rid_t> seeds;
  std::string shipmode, shipinstruct;  ///< Q1b parameters
};

struct Setup {
  std::unique_ptr<smoke::SmokeEngine> engine;
  std::vector<TpchQuery> queries;
  std::vector<Op> mix;
  size_t base_rows = 0;
};

const char* KindName(Kind k) { return kKindNames[static_cast<int>(k)]; }

size_t OutputRows(const smoke::SmokeEngine& e, const std::string& q) {
  const smoke::Table* t = nullptr;
  return e.GetResult(q, &t).ok() ? t->num_rows() : 0;
}

/// The seeded operation mix.
std::vector<Op> BuildMix(const Setup& s, uint64_t seed) {
  const smoke::SmokeEngine& e = *s.engine;
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  auto pick = [&rng](size_t n) {
    return static_cast<rid_t>(
        std::uniform_int_distribution<size_t>(0, n - 1)(rng));
  };
  const smoke::Table* lineitem = nullptr;
  const smoke::Table* q1 = nullptr;
  if (!e.GetTable("lineitem", &lineitem).ok() || !e.GetResult("q1", &q1).ok()) {
    return {};
  }
  // Q1 groups: all of them for Q1b, those holding 10-40 % of lineitem for
  // the whole-group traces (count_order is Q1's last column).
  std::vector<rid_t> groups, big_groups;
  const auto& counts = q1->column(q1->num_columns() - 1).ints();
  for (rid_t g = 0; g < q1->num_rows(); ++g) {
    groups.push_back(g);
    const double share = static_cast<double>(counts[g]) /
                         static_cast<double>(lineitem->num_rows());
    if (share >= 0.10 && share <= 0.40) big_groups.push_back(g);
  }
  if (big_groups.empty()) big_groups = groups;

  // One block of 20 ops holds the mix's exact proportions; blocks are
  // shuffled internally, so every block the timed window divides by the
  // calibration kernel has the same composition.
  const std::pair<Kind, const char*> kBlock[] = {
      {Kind::kBackward, "q3"},  {Kind::kBackward, "q3"},
      {Kind::kBackward, "q3"},  {Kind::kBackward, "q3"},
      {Kind::kBackward, "q10"}, {Kind::kBackward, "q10"},
      {Kind::kBackward, "q10"}, {Kind::kBackward, "q10"},
      {Kind::kForward, "q3"},   {Kind::kForward, "q3"},
      {Kind::kForward, "q12"},  {Kind::kForward, "q12"},
      {Kind::kLinked, "q10"},   {Kind::kLinked, "q10"},
      {Kind::kLinked, "q10"},   {Kind::kLinked, "q10"},
      {Kind::kQ1b, "q1"},       {Kind::kQ1b, "q1"},
      {Kind::kQ1b, "q1"},       {Kind::kGroup, "q1"}};
  static_assert(sizeof(kBlock) / sizeof(kBlock[0]) == kBlockOps,
                "one block of the mix");
  const auto& modes = smoke::tpch::ShipModes();
  const auto& instructs = smoke::tpch::ShipInstructs();
  std::vector<Op> mix;
  size_t q1b = 0, group = 0;
  for (size_t b = 0; b < kMixOps / kBlockOps; ++b) {
    std::vector<Op> block;
    for (const auto& [kind, query] : kBlock) {
      Op op;
      op.kind = kind;
      op.query = query;
      switch (kind) {
        case Kind::kBackward:
        case Kind::kLinked:
          op.seeds = {pick(OutputRows(e, query))};
          break;
        case Kind::kForward: {
          std::set<rid_t> seeds;
          while (seeds.size() < kForwardSeeds) {
            seeds.insert(pick(lineitem->num_rows()));
          }
          op.seeds.assign(seeds.begin(), seeds.end());
          std::shuffle(op.seeds.begin(), op.seeds.end(), rng);
          break;
        }
        case Kind::kQ1b:
          op.seeds = {groups[q1b++ % groups.size()]};
          op.shipmode = modes[pick(modes.size())];
          op.shipinstruct = instructs[pick(instructs.size())];
          break;
        case Kind::kGroup:
          op.seeds = {big_groups[group++ % big_groups.size()]};
          break;
      }
      block.push_back(std::move(op));
    }
    std::shuffle(block.begin(), block.end(), rng);
    mix.insert(mix.end(), block.begin(), block.end());
  }
  return mix;
}

Status Load(uint64_t seed, Setup* s) {
  smoke::tpch::Database db;
  {
    Tracer::Scope span("workloads.generate");
    db = smoke::tpch::Generate(0.1, seed);
  }
  s->base_rows = db.lineitem.num_rows() + db.orders.num_rows() +
                 db.customer.num_rows() + db.nation.num_rows();
  s->engine = std::make_unique<smoke::SmokeEngine>();
  smoke::SmokeEngine& e = *s->engine;
  {
    Tracer::Scope span("core.create_table");
    SMOKE_RETURN_NOT_OK(e.CreateTable("lineitem", std::move(db.lineitem)));
    SMOKE_RETURN_NOT_OK(e.CreateTable("orders", std::move(db.orders)));
    SMOKE_RETURN_NOT_OK(e.CreateTable("customer", std::move(db.customer)));
    SMOKE_RETURN_NOT_OK(e.CreateTable("nation", std::move(db.nation)));
  }
  SMOKE_RETURN_NOT_OK(BuildTpchQueries(e, &s->queries));
  for (const TpchQuery& q : s->queries) {
    Tracer::Scope span("core.execute_query." + q.name);
    SMOKE_RETURN_NOT_OK(
        e.ExecuteQuery(q.name, q.spja, Capture(smoke::CaptureMode::kInject)));
  }
  s->mix = BuildMix(*s, seed);
  if (s->mix.size() != kMixOps) return Status::Unsupported("empty op mix");
  return Status::OK();
}

smoke::TraceBuilder Q1bBuilder(smoke::TraceSource src, const Op& op) {
  return smoke::TraceBuilder::Backward(std::move(src), "lineitem", op.seeds)
      .Consuming(smoke::tpch::MakeQ1b(smoke::tpch::Database(), op.shipmode,
                                      op.shipinstruct));
}

/// What one operation produced (for counts and checks).
struct OpResult {
  smoke::TraceResult trace;  ///< every kind but Q1b
  size_t q1b_rows = 0;       ///< Q1b: rows of the consuming result
};

/// Runs one operation through the engine's public entry points.
Status RunOp(smoke::SmokeEngine* e, const Op& op, OpResult* out) {
  Tracer::Scope span(std::string("core.trace.") + KindName(op.kind));
  switch (op.kind) {
    case Kind::kBackward:
    case Kind::kGroup:
      return e->TraceBackward(op.query, "lineitem", op.seeds, &out->trace);
    case Kind::kForward:
      return e->TraceForward(op.query, "lineitem", op.seeds, &out->trace);
    case Kind::kLinked:
      return e->TraceLinked("q10", op.seeds, "lineitem", "q3", &out->trace);
    case Kind::kQ1b: {
      smoke::TraceSource src;
      SMOKE_RETURN_NOT_OK(e->MakeTraceSource("q1", &src));
      SMOKE_RETURN_NOT_OK(e->ExecuteTraceQuery("q1b", Q1bBuilder(src, op)));
      const smoke::Table* t = nullptr;
      if (e->GetResult("q1b", &t).ok()) out->q1b_rows = t->num_rows();
      return e->DropResult("q1b");
    }
  }
  return Status::OK();
}

/// The bare index lookup of an operation: the rids-only call on the same
/// seeds (Q1b: its group's backward rids).
Status Lookup(const smoke::SmokeEngine& e, const Op& op,
              std::vector<rid_t>* rids) {
  Tracer::Scope span("lineage.lookup");
  switch (op.kind) {
    case Kind::kForward:
      return e.Forward(op.query, "lineitem", op.seeds, rids);
    case Kind::kLinked:
      return e.TraceAcross("q10", op.seeds, "lineitem", "q3", rids);
    default:
      return e.Backward(op.query, "lineitem", op.seeds, rids, true);
  }
}

/// Per traced operation: the layers the engine call goes through, each
/// called directly — compile, then execute the compiled trace.
struct ShadowCounts {
  std::vector<double> rows, rules;
};

void Shadow(const smoke::SmokeEngine& e, const Op& op, const OpResult& res,
            Report* rep, ShadowCounts* counts) {
  Tracer::Scope root("bench.shadow");
  smoke::TraceSource src, to;
  if (!Count(rep, e.MakeTraceSource(op.query, &src), "MakeTraceSource")) return;
  smoke::TraceBuilder builder =
      op.kind == Kind::kForward
          ? smoke::TraceBuilder::Forward(src, "lineitem", op.seeds)
          : smoke::TraceBuilder::Backward(src, "lineitem", op.seeds);
  if (op.kind == Kind::kBackward || op.kind == Kind::kGroup) {
    builder.Dedup(true);
  } else if (op.kind == Kind::kLinked) {
    if (!Count(rep, e.MakeTraceSource("q3", &to), "MakeTraceSource")) return;
    builder.ThenForward(to);
  } else if (op.kind == Kind::kQ1b) {
    builder = Q1bBuilder(src, op);
  }
  smoke::LineageQuery compiled;
  {
    Tracer::Scope span("query.compile");
    if (!Count(rep, builder.Compile(&compiled), "Compile")) return;
  }
  {
    smoke::PlanResult pr;
    Tracer::Scope span("plan.trace_exec");
    Count(rep, compiled.Execute(smoke::CaptureOptions::Inject(), &pr),
          "LineageQuery::Execute");
  }
  counts->rows.push_back(static_cast<double>(
      op.kind == Kind::kQ1b ? res.q1b_rows : res.trace.rows.num_rows()));
  counts->rules.push_back(static_cast<double>(compiled.explain().rules.size()));
}

// ------------------------------------------------------ output checks

std::vector<rid_t> Sorted(std::vector<rid_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// Q1b over the brute-force lineage of its Q1 group: filter, group by
/// (year, month) of l_shipdate, Q1's aggregates. Keyed "year\x1fmonth".
std::map<std::string, std::vector<double>> Q1bReference(const Setup& s,
                                                        const Op& op) {
  const smoke::Table* q1 = nullptr;
  std::map<std::string, std::vector<double>> groups;
  if (!s.engine->GetResult("q1", &q1).ok()) return groups;
  const std::string key = OutputKey(*q1, op.seeds[0], 2);
  const OracleLineage oracle = BruteForceLineage(s.queries[0].spja, {key});
  const smoke::Table& li = *s.queries[0].spja.fact;
  using namespace smoke::tpch;
  // Sums of qty, price, disc_price, charge, discount; then the count.
  std::map<std::string, std::vector<double>> sums;
  for (rid_t r : oracle.at(key).at("lineitem")) {
    if (li.column(kLShipmode).strings()[r] != op.shipmode ||
        li.column(kLShipinstruct).strings()[r] != op.shipinstruct) {
      continue;
    }
    const int64_t d = li.column(kLShipdate).ints()[r];
    auto& acc = sums[std::to_string(d / 10000) + '\x1f' +
                     std::to_string(d / 100 % 100)];
    if (acc.empty()) acc.assign(6, 0.0);
    const double qty = li.column(kLQuantity).doubles()[r];
    const double price = li.column(kLExtendedprice).doubles()[r];
    const double disc = li.column(kLDiscount).doubles()[r];
    const double tax = li.column(kLTax).doubles()[r];
    acc[0] += qty;
    acc[1] += price;
    acc[2] += price * (1 - disc);
    acc[3] += price * (1 - disc) * (1 + tax);
    acc[4] += disc;
    acc[5] += 1;
  }
  for (const auto& [k, acc] : sums) {
    const double n = acc[5];
    groups[k] = {acc[0], acc[1], acc[2], acc[3], acc[0] / n, acc[1] / n,
                 acc[4] / n, n};
  }
  return groups;
}

void Verify(Setup* s, uint64_t seed, Report* rep) {
  Tracer::TracedOp untraced(false);
  smoke::SmokeEngine& e = *s->engine;
  std::mt19937_64 rng(seed ^ 0xc0ffeeULL);
  std::vector<size_t> order(s->mix.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  std::map<Kind, int> checked;
  for (size_t i : order) {
    const Op& op = s->mix[i];
    if (checked[op.kind] >= (op.kind == Kind::kQ1b ? 8 : 10)) continue;
    checked[op.kind]++;
    const std::string what = std::string(KindName(op.kind)) + " op " +
                             std::to_string(i) + ": ";
    if (op.kind == Kind::kQ1b) {
      smoke::TraceSource src;
      const bool ok =
          e.MakeTraceSource("q1", &src).ok() &&
          e.ExecuteTraceQuery("q1b.check", Q1bBuilder(src, op)).ok();
      const smoke::Table* out = nullptr;
      rep->Check(ok && e.GetResult("q1b.check", &out).ok(),
                 what + "drill-down failed");
      if (out == nullptr) continue;
      const auto expect = Q1bReference(*s, op);
      bool same = out->num_rows() == expect.size();
      for (rid_t r = 0; same && r < out->num_rows(); ++r) {
        auto it = expect.find(OutputKey(*out, r, 2));
        same = it != expect.end() && it->second.size() + 2 == out->num_columns();
        for (size_t c = 2; same && c < out->num_columns(); ++c) {
          const smoke::Column& col = out->column(c);
          const double v = col.type() == smoke::DataType::kFloat64
                               ? col.doubles()[r]
                               : static_cast<double>(col.ints()[r]);
          same = NearlyEqual(v, it->second[c - 2], 1e-9);
        }
      }
      rep->Check(same, what + "Q1b differs from a group-by over the "
                              "brute-force lineage");
      rep->Check(e.DropResult("q1b.check").ok(), what + "DropResult failed");
      continue;
    }
    OpResult res;
    const bool ok = RunOp(&e, op, &res).ok();
    std::vector<rid_t> rids;
    const bool ref_ok = Lookup(e, op, &rids).ok();
    rep->Check(ok && ref_ok && Sorted(res.trace.rids) == Sorted(rids),
               what + "typed trace rids differ from the rids-only call");
    rep->Check(res.trace.rows.num_rows() == res.trace.rids.size(),
               what + "materialized rows != traced rids");
  }
}

/// Generate, load, retain the four queries and run the warm-up ops.
Status SetUp(const Args& args, Setup* s, Report* rep) {
  {
    Tracer::TracedOp op(args.trace);  // spans: generate and load only
    SMOKE_RETURN_NOT_OK(Load(args.seed, s));
  }
  for (size_t k = 0; k < kWarmupOps; ++k) {
    OpResult res;
    Count(rep, RunOp(s->engine.get(), s->mix[k], &res), "warm-up op");
  }
  return Status::OK();
}

}  // namespace

Report RunDrilldownTrace(const Args& args) {
  Report rep;
  std::unique_ptr<Setup> setup;
  const std::vector<double> setup_s = RepeatSetUp<Setup>(
      [&](Setup* s) { return SetUp(args, s, &rep); }, &setup, &rep);
  if (setup_s.empty()) return rep;
  Setup& s = *setup;
  rep.attempted = rep.failed = 0;
  const double bytes_per_row =
      static_cast<double>(s.engine->LineageMemoryStats().total_bytes) /
      static_cast<double>(s.base_rows);
  Calibration cal(kCalibrationRows, 1);

  // Timed window: at least the whole mix, and at least --seconds. The
  // calibration kernel runs before every kCalibrationEvery-th op; a block's
  // cost is its mean op time over the median of its kernel runs.
  std::vector<double> all_ms, block_cost, block_cal, cal_ms;
  std::vector<double> lookup_ms, materialize_ms, rids_traced;
  std::vector<double> traced_ms, untraced_ms;
  std::map<Kind, std::vector<double>> kind_ms;
  ShadowCounts counts;
  size_t traced_ops = 0;
  double block_ms = 0;
  size_t block_n = 0;
  auto close_block = [&] {
    if (block_n == kBlockOps) {
      block_cost.push_back(block_ms / kBlockOps / Median(block_cal));
    }
    block_ms = 0;
    block_n = 0;
    block_cal.clear();
  };
  const Clock::time_point start = Clock::now();
  for (size_t i = 0;
       i < kMixOps || MsBetween(start, Clock::now()) < args.seconds * 1000.0;
       ++i) {
    if (i % kBlockOps == 0) close_block();
    if (i % kCalibrationEvery == 0) {
      block_cal.push_back(cal.RunMs());
      cal_ms.push_back(block_cal.back());
    }
    const Op& op = s.mix[(kWarmupOps + i) % s.mix.size()];
    // Parity flips every cycle, so each op runs traced and untraced alike.
    const bool traced = args.trace && (i + i / s.mix.size()) % 2 == 0;
    Tracer::TracedOp top(traced);
    OpResult res;
    const Clock::time_point t0 = Clock::now();
    const bool ok = Count(&rep, RunOp(s.engine.get(), op, &res),
                          std::string("trace op ") + KindName(op.kind));
    const double ms = MsBetween(t0, Clock::now());
    if (!ok) continue;
    all_ms.push_back(ms);
    block_ms += ms;
    block_n++;
    kind_ms[op.kind].push_back(ms);
    (traced ? traced_ms : untraced_ms).push_back(ms);
    if (traced) {
      // The bare index lookup on the same seeds, then the shadow calls.
      std::vector<rid_t> rids;
      const Clock::time_point l0 = Clock::now();
      if (Count(&rep, Lookup(*s.engine, op, &rids), "rids-only lookup")) {
        lookup_ms.push_back(MsBetween(l0, Clock::now()));
        materialize_ms.push_back(ms - lookup_ms.back());
        rids_traced.push_back(static_cast<double>(rids.size()));
      }
      Shadow(*s.engine, op, res, &rep, &counts);
      traced_ops++;
    }
  }
  close_block();

  Verify(&s, args.seed, &rep);

  ReportSetUp(setup_s, &rep);
  rep.Set("cost_cal_x", Median(block_cost), "x");
  rep.Set("lineage_bytes_per_row", bytes_per_row, "B/row");
  rep.Line("cost_cal_x = " + Num(Median(block_cost)) +
           " x (mean op time of a block of " + std::to_string(kBlockOps) +
           " / the calibration kernel, median of " +
           std::to_string(block_cost.size()) + " blocks)");
  rep.PrintLatency("trace_ms", all_ms);
  rep.Line("trace_ms_mean = " + Num(Mean(all_ms)) +
           " ms (the mix's cost per operation)");
  for (const auto& [kind, ms] : kind_ms) {
    rep.Line(std::string("  ") + KindName(kind) + ": p50 " + Num(Median(ms)) +
             " ms (n=" + std::to_string(ms.size()) + ")");
  }
  rep.Line("calibration_ms = " + Num(Median(cal_ms)) + " ms (median of " +
           std::to_string(cal_ms.size()) + " kernel runs, " +
           std::to_string(kCalibrationRows) + " rows, one before every " +
           std::to_string(kCalibrationEvery) + " ops)");
  rep.Line("lineage_bytes_per_row = " + Num(bytes_per_row) +
           " B/row (the 4 retained queries)");
  if (!args.trace) return rep;

  const std::vector<Span> spans = Tracer::Collect();
  rep.Set("workloads.generate_s",
          MedianSpanMs(spans, "workloads.generate") / 1000.0, "s");
  rep.Set("query.compile_ms", MedianSpanMs(spans, "query.compile"), "ms");
  rep.Set("plan.trace_exec_ms", MedianSpanMs(spans, "plan.trace_exec"), "ms");
  for (Kind k : {Kind::kBackward, Kind::kForward, Kind::kLinked, Kind::kQ1b,
                 Kind::kGroup}) {
    rep.Set(std::string("core.trace.") + KindName(k) + "_ms",
            MedianSpanMs(spans, std::string("core.trace.") + KindName(k)),
            "ms");
  }
  // Materialization: the typed call minus the rids-only lookup of the same
  // operation.
  rep.Set("lineage.lookup_ms", Median(lookup_ms), "ms");
  rep.Set("query.materialize_ms", Median(materialize_ms), "ms");
  rep.Set("query.rids_traced", Mean(rids_traced), "count");
  rep.Set("query.rows_materialized", Mean(counts.rows), "count");
  rep.Set("optimizer.trace_rules_applied", Mean(counts.rules), "count");
  ReportLayerSelfTimes(spans, traced_ops, &rep);
  rep.Set("trace.overhead_pct",
          100.0 * (Median(traced_ms) - Median(untraced_ms)) /
              Median(untraced_ms),
          "%");
  return rep;
}

}  // namespace smokebench
