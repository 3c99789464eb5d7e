// Workload tpch_capture: closed loop, one client, TPC-H SF 0.1.
//
// Each pass runs Q1/Q3/Q10/Q12 as SPJA blocks (SmokeEngine::ExecuteQuery),
// as name-based primitive plans (SmokeEngine::ExecutePlan), and primitive
// Q1 over a second copy of lineitem hash-sharded 4 ways on l_orderkey —
// once per capture mode, the mode order rotating each pass so first-mode
// bias cancels. A mode's pass time runs until all its lineage is retained
// and queryable (Smoke-D includes FinalizePlan). The paper's Figure 8
// headline, with the fused-vs-composed gap side by side. The calibration
// kernel runs right before every mode's pass; cost_cal_x sums the three
// passes' times over their kernel's.
#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <random>

#include "core/smoke_engine.h"
#include "lineage/store/lineage_store.h"
#include "optimizer/optimizer.h"
#include "plan/executor.h"
#include "tpch_forms.h"
#include "workloads.h"

namespace smokebench {
namespace {

using smoke::CaptureMode;
using smoke::Status;

constexpr double kScaleFactor = 0.1;
constexpr uint32_t kShards = 4;
// The calibration kernel: about lineitem's row count, median of a few runs.
constexpr size_t kCalibrationRows = 600000;
constexpr int kCalibrationRuns = 15;
const char kShardedTable[] = "lineitem_sharded";
constexpr std::array<CaptureMode, 3> kModes = {
    CaptureMode::kNone, CaptureMode::kInject, CaptureMode::kDefer};

struct Setup {
  std::unique_ptr<smoke::SmokeEngine> engine;
  std::vector<TpchQuery> queries;
  smoke::LogicalPlan sharded_q1;
  smoke::SPJAQuery sharded_q1_spja;  ///< oracle form of the sharded Q1
  size_t base_rows = 0;
};

std::string Name(const char* form, const std::string& q) {
  return std::string(form) + "." + q;
}

Status Load(uint64_t seed, Setup* s) {
  smoke::tpch::Database db;
  {
    Tracer::Scope span("workloads.generate");
    db = smoke::tpch::Generate(kScaleFactor, seed);
  }
  s->engine = std::make_unique<smoke::SmokeEngine>();
  smoke::Table copy = db.lineitem;
  s->base_rows = 2 * db.lineitem.num_rows() + db.orders.num_rows() +
                 db.customer.num_rows() + db.nation.num_rows();
  {
    Tracer::Scope span("core.create_table");
    SMOKE_RETURN_NOT_OK(s->engine->CreateTable("lineitem", std::move(db.lineitem)));
    SMOKE_RETURN_NOT_OK(s->engine->CreateTable("orders", std::move(db.orders)));
    SMOKE_RETURN_NOT_OK(s->engine->CreateTable("customer", std::move(db.customer)));
    SMOKE_RETURN_NOT_OK(s->engine->CreateTable("nation", std::move(db.nation)));
    SMOKE_RETURN_NOT_OK(s->engine->CreateTable(kShardedTable, std::move(copy)));
  }
  {
    Tracer::Scope span("shard.shard_table");
    SMOKE_RETURN_NOT_OK(s->engine->ShardTable(
        kShardedTable,
        smoke::ShardingSpec::Hash(smoke::tpch::kLOrderkey, kShards)));
  }
  SMOKE_RETURN_NOT_OK(BuildTpchQueries(*s->engine, &s->queries));
  SMOKE_RETURN_NOT_OK(BuildQ1Plan(*s->engine, kShardedTable, &s->sharded_q1));
  s->sharded_q1_spja = s->queries[0].spja;
  SMOKE_RETURN_NOT_OK(
      s->engine->GetTable(kShardedTable, &s->sharded_q1_spja.fact));
  s->sharded_q1_spja.fact_name = kShardedTable;
  return Status::OK();
}

/// Names of the results one mode's pass retains.
std::vector<std::string> PassResults(const Setup& s) {
  std::vector<std::string> names;
  for (const TpchQuery& q : s.queries) names.push_back(Name("spja", q.name));
  for (const TpchQuery& q : s.queries) names.push_back(Name("plan", q.name));
  names.push_back("shard.q1");
  return names;
}

/// One mode's pass: every form of every query, until lineage is queryable.
/// Returns its wall time in ms.
double ModePass(Setup* s, CaptureMode mode, Report* rep) {
  const std::string m = ModeName(mode);
  Tracer::Scope pass_span("bench.pass." + m);
  smoke::SmokeEngine& e = *s->engine;
  const Clock::time_point t0 = Clock::now();
  for (const TpchQuery& q : s->queries) {
    Tracer::Scope span("core.execute_query." + q.name + "." + m);
    Count(rep, e.ExecuteQuery(Name("spja", q.name), q.spja, Capture(mode)),
          "ExecuteQuery " + q.name + " " + m);
  }
  smoke::CaptureOptions plan_opts = Capture(mode);
  plan_opts.defer_plan_finalize = mode == CaptureMode::kDefer;
  for (const TpchQuery& q : s->queries) {
    Tracer::Scope span("core.execute_plan." + q.name + "." + m);
    Count(rep, e.ExecutePlan(Name("plan", q.name), q.plan, plan_opts),
          "ExecutePlan " + q.name + " " + m);
  }
  if (mode == CaptureMode::kDefer) {
    for (const TpchQuery& q : s->queries) {
      Tracer::Scope span("core.finalize_plan." + q.name);
      Count(rep, e.FinalizePlan(Name("plan", q.name)),
            "FinalizePlan " + q.name);
    }
  }
  {
    Tracer::Scope span("shard.exec." + m);
    Count(rep, e.ExecutePlan("shard.q1", s->sharded_q1, Capture(mode)),
          "sharded ExecutePlan q1 " + m);
  }
  return MsBetween(t0, Clock::now());
}

void DropPass(Setup* s, Report* rep) {
  Tracer::Scope span("core.drop_result");
  for (const std::string& name : PassResults(*s)) {
    Count(rep, s->engine->DropResult(name), "DropResult " + name);
  }
}

/// Byte counts the traced run's shadow encode observes.
struct ShadowBytes {
  std::vector<double> raw, encoded;
};

/// Traced passes only: the per-layer calls the engine makes internally,
/// issued directly so each gets its own span (nothing is retained).
void ShadowPass(const Setup& s, Report* rep, ShadowBytes* bytes) {
  Tracer::Scope root("bench.shadow");
  double raw = 0, encoded = 0;
  auto encode = [&](smoke::PlanResult* r) {
    raw += static_cast<double>(r->lineage.MemoryBytes());
    {
      Tracer::Scope span("lineage.store.encode");
      smoke::EncodeQueryLineage(&r->lineage, smoke::LineageCodec::kAdaptive);
    }
    encoded += static_cast<double>(r->lineage.MemoryBytes());
  };
  for (const TpchQuery& q : s.queries) {
    {
      smoke::LogicalPlan optimized;
      smoke::PlanExplain explain;
      Tracer::Scope span("optimizer.optimize");
      Count(rep, smoke::OptimizePlan(q.plan, &optimized, &explain),
            "OptimizePlan " + q.name);
    }
    for (CaptureMode mode : kModes) {
      const std::string m = ModeName(mode);
      smoke::PlanResult block;
      {
        Tracer::Scope span("engine.spja." + q.name + "." + m);
        Count(rep, smoke::ExecutePlan(q.block, Capture(mode), &block),
              "SpjaBlock " + q.name);
      }
      if (mode == CaptureMode::kInject) encode(&block);
      smoke::CaptureOptions opts = Capture(mode);
      opts.defer_plan_finalize = mode == CaptureMode::kDefer;
      smoke::PlanResult plan;
      {
        Tracer::Scope span("plan.exec." + q.name + "." + m);
        Count(rep, smoke::ExecutePlan(q.plan, opts, &plan),
              "primitive plan " + q.name);
      }
      if (mode == CaptureMode::kDefer) {
        Tracer::Scope span("plan.finalize");
        Count(rep, plan.FinalizeDeferred(), "FinalizeDeferred " + q.name);
      }
      if (mode == CaptureMode::kInject) encode(&plan);
    }
  }
  bytes->raw.push_back(raw);
  bytes->encoded.push_back(encoded);
}

// ------------------------------------------------------ output checks

/// Runs one more pass per mode, keeping the results, and checks them:
/// Smoke-I/D outputs equal Baseline's, the plan form equals the SPJA form,
/// sharded Q1 equals unsharded Q1, and for three sampled output rows per
/// query the backward lineage of every form equals the brute-force lineage.
void VerifyPass(Setup* s, uint64_t seed, Report* rep) {
  Tracer::TracedOp untraced(false);
  smoke::SmokeEngine& e = *s->engine;
  std::map<std::string, smoke::Table> baseline;
  std::mt19937_64 rng(seed ^ 0x5eedc0deULL);
  for (CaptureMode mode : kModes) {
    const std::string m = ModeName(mode);
    Report calls;  // verification calls are not timed operations
    ModePass(s, mode, &calls);
    rep->Check(calls.failed == 0, "verification pass " + m + " failed calls");
    auto output = [&](const std::string& name) -> const smoke::Table* {
      const smoke::Table* t = nullptr;
      return e.GetResult(name, &t).ok() ? t : nullptr;
    };
    for (const std::string& name : PassResults(*s)) {
      const smoke::Table* t = output(name);
      rep->Check(t != nullptr, name + " " + m + ": no result");
      if (t == nullptr) return;
      if (mode == CaptureMode::kNone) baseline[name] = *t;
    }
    std::string why;
    for (const TpchQuery& q : s->queries) {
      for (const char* form : {"spja", "plan"}) {
        const std::string name = Name(form, q.name);
        rep->Check(SameRows(*output(name), baseline[name], q.num_keys, &why),
                   name + " " + m + " output differs from baseline: " + why);
      }
      rep->Check(SameRows(*output(Name("plan", q.name)),
                          *output(Name("spja", q.name)), q.num_keys, &why),
                 q.name + " " + m + " plan form differs from SPJA form: " +
                     why);
    }
    rep->Check(SameRows(*output("shard.q1"), *output("plan.q1"), 2, &why),
               "sharded q1 " + m + " differs from unsharded q1: " + why);

    if (mode != CaptureMode::kNone) {
      // Lineage against the brute-force reference.
      auto check_lineage = [&](const smoke::SPJAQuery& spja, size_t num_keys,
                               const std::vector<std::string>& results) {
        const smoke::Table* ref = output(results[0]);
        std::set<std::string> keys;
        std::uniform_int_distribution<smoke::rid_t> pick(
            0, static_cast<smoke::rid_t>(ref->num_rows() - 1));
        for (int i = 0; i < 3; ++i) {
          keys.insert(OutputKey(*ref, pick(rng), num_keys));
        }
        const OracleLineage oracle = BruteForceLineage(spja, keys);
        for (const std::string& name : results) {
          const smoke::Table* out = output(name);
          for (smoke::rid_t r = 0; r < out->num_rows(); ++r) {
            const std::string key = OutputKey(*out, r, num_keys);
            auto it = oracle.find(key);
            if (it == oracle.end()) continue;
            for (const auto& [rel, expect] : it->second) {
              std::vector<smoke::rid_t> got;
              const bool ok = e.Backward(name, rel, {r}, &got, true).ok();
              std::sort(got.begin(), got.end());
              rep->Check(ok && got == expect,
                         name + " " + m + " backward lineage on " + rel +
                             " differs from brute force (" +
                             std::to_string(got.size()) + " vs " +
                             std::to_string(expect.size()) + " rids)");
            }
          }
        }
      };
      for (const TpchQuery& q : s->queries) {
        check_lineage(q.spja, q.num_keys,
                      {Name("spja", q.name), Name("plan", q.name)});
      }
      check_lineage(s->sharded_q1_spja, 2, {"shard.q1"});
    }
    DropPass(s, &calls);
  }
}

/// Generate, load and one untimed warm-up pass per mode.
Status SetUp(const Args& args, Setup* s, Report* rep) {
  {
    Tracer::TracedOp op(args.trace);  // spans: generate and load only
    SMOKE_RETURN_NOT_OK(Load(args.seed, s));
  }
  for (CaptureMode mode : kModes) {
    ModePass(s, mode, rep);
    DropPass(s, rep);
  }
  return Status::OK();
}

}  // namespace

Report RunTpchCapture(const Args& args) {
  Report rep;
  std::unique_ptr<Setup> setup;
  const std::vector<double> setup_s = RepeatSetUp<Setup>(
      [&](Setup* s) { return SetUp(args, s, &rep); }, &setup, &rep);
  if (setup_s.empty()) return rep;
  Setup& s = *setup;
  rep.attempted = rep.failed = 0;  // set-up calls are not timed operations
  Calibration cal(kCalibrationRows, 2);

  // Timed window. Right before each mode's pass the calibration kernel
  // runs on as many threads as capture uses; the pass's cost is its time
  // over the kernel's.
  std::map<CaptureMode, std::vector<double>> pass_ms, pass_cal, traced_ms,
      untraced_ms;
  std::vector<double> cost, cal_ms, bytes_per_row;
  ShadowBytes shadow;
  size_t traced_passes = 0;
  const Clock::time_point start = Clock::now();
  for (size_t pass = 0;
       pass == 0 || MsBetween(start, Clock::now()) < args.seconds * 1000.0;
       ++pass) {
    const bool traced = args.trace && pass % 2 == 0;
    Tracer::TracedOp op(traced);
    double pass_cost = 0;
    for (size_t k = 0; k < kModes.size(); ++k) {
      const CaptureMode mode = kModes[(pass + k) % kModes.size()];
      const double kernel_ms = cal.MedianMs(kCalibrationRuns);
      const double ms = ModePass(&s, mode, &rep);
      cal_ms.push_back(kernel_ms);
      pass_ms[mode].push_back(ms);
      pass_cal[mode].push_back(ms / kernel_ms);
      pass_cost += ms / kernel_ms;
      (traced ? traced_ms : untraced_ms)[mode].push_back(ms);
      if (mode == CaptureMode::kInject) {
        bytes_per_row.push_back(
            static_cast<double>(s.engine->LineageMemoryStats().total_bytes) /
            static_cast<double>(s.base_rows));
      }
      DropPass(&s, &rep);
    }
    cost.push_back(pass_cost);
    if (traced) {
      ShadowPass(s, &rep, &shadow);
      traced_passes++;
    }
  }
  VerifyPass(&s, args.seed, &rep);

  ReportSetUp(setup_s, &rep);
  rep.Set("cost_cal_x", Median(cost), "x");
  rep.Set("lineage_bytes_per_row", Median(bytes_per_row), "B/row");
  rep.Line("cost_cal_x = " + Num(Median(cost)) +
           " x (one pass of all three modes / the calibration kernel, "
           "median of " + std::to_string(cost.size()) + " passes)");
  for (CaptureMode mode : {CaptureMode::kInject, CaptureMode::kDefer,
                           CaptureMode::kNone}) {
    const std::string name =
        mode == CaptureMode::kInject  ? "capture_pass_ms"
        : mode == CaptureMode::kDefer ? "defer_pass_ms"
                                      : "baseline_pass_ms";
    rep.Line(name + " = " + Num(Median(pass_ms[mode])) + " ms (median of " +
             std::to_string(pass_ms[mode].size()) + " passes; " +
             Num(Median(pass_cal[mode])) + " x the calibration kernel)");
  }
  std::vector<double> overhead;
  for (size_t i = 0; i < pass_ms[CaptureMode::kInject].size() &&
                     i < pass_ms[CaptureMode::kNone].size();
       ++i) {
    overhead.push_back(pass_ms[CaptureMode::kInject][i] /
                       pass_ms[CaptureMode::kNone][i]);
  }
  rep.Line("capture_overhead_x = " + Num(Median(overhead)) +
           " x (Smoke-I pass / Baseline pass of the same pass, median)");
  rep.Line("calibration_ms = " + Num(Median(cal_ms)) + " ms (median of " +
           std::to_string(kCalibrationRuns) + " kernel runs on 2 threads, " +
           std::to_string(kCalibrationRows) + " rows, before each pass)");
  rep.Line("lineage_bytes_per_row = " + Num(Median(bytes_per_row)) +
           " B/row (after a Smoke-I pass)");
  if (!args.trace) return rep;

  // Per-layer metrics from the traced passes' spans.
  const std::vector<Span> spans = Tracer::Collect();
  auto med = [&](const std::string& name) { return MedianSpanMs(spans, name); };
  rep.Set("workloads.generate_s", med("workloads.generate") / 1000.0, "s");
  rep.Set("optimizer.optimize_ms", med("optimizer.optimize"), "ms");
  for (const TpchQuery& q : s.queries) {
    for (CaptureMode mode : kModes) {
      const std::string m = ModeName(mode);
      rep.Set("engine.spja." + q.name + "." + m + "_ms",
              med("engine.spja." + q.name + "." + m), "ms");
      rep.Set("plan.exec." + q.name + "." + m + "_ms",
              med("plan.exec." + q.name + "." + m), "ms");
    }
    for (const char* form : {"spja", "plan"}) {
      const std::string prefix =
          std::string(form) == "spja" ? "engine.spja." : "plan.exec.";
      const double base = med(prefix + q.name + ".baseline");
      const double inject = med(prefix + q.name + ".inject");
      rep.Set(std::string("lineage.capture_overhead_pct.") + form + "." +
                  q.name,
              100.0 * (inject - base) / base, "%");
    }
  }
  rep.Set("plan.finalize_ms", med("plan.finalize"), "ms");
  rep.Set("lineage.store.encode_ms", med("lineage.store.encode"), "ms");
  rep.Set("lineage.raw_bytes", Median(shadow.raw), "B");
  rep.Set("lineage.encoded_bytes", Median(shadow.encoded), "B");
  rep.Set("lineage.store.compression_x",
          Median(shadow.raw) / Median(shadow.encoded), "x");

  // core.retain: the engine's Smoke-I calls minus the shadow execution and
  // encode of the same queries, per traced pass.
  std::map<uint64_t, double> retain;
  for (const Span& sp : spans) {
    const double d = sp.end_ms - sp.start_ms;
    for (const TpchQuery& q : s.queries) {
      if (sp.name == "core.execute_query." + q.name + ".inject" ||
          sp.name == "core.execute_plan." + q.name + ".inject") {
        retain[sp.op_id] += d;
      } else if (sp.name == "engine.spja." + q.name + ".inject" ||
                 sp.name == "plan.exec." + q.name + ".inject") {
        retain[sp.op_id] -= d;
      }
    }
    if (sp.name == "lineage.store.encode") retain[sp.op_id] -= d;
  }
  std::vector<double> retain_ms;
  for (const auto& [op, ms] : retain) retain_ms.push_back(ms);
  rep.Set("core.retain_ms", Median(retain_ms), "ms");
  for (CaptureMode mode : kModes) {
    const std::string m = ModeName(mode);
    rep.Set("shard.exec." + m + "_ms", med("shard.exec." + m), "ms");
  }
  rep.Set("shard.vs_unsharded_x",
          med("shard.exec.inject") / med("core.execute_plan.q1.inject"), "x");
  ReportLayerSelfTimes(spans, traced_passes, &rep);
  rep.Set("trace.overhead_pct",
          100.0 * (Median(traced_ms[CaptureMode::kInject]) -
                   Median(untraced_ms[CaptureMode::kInject])) /
              Median(untraced_ms[CaptureMode::kInject]),
          "%");
  return rep;
}

}  // namespace smokebench
