// Workload brush_serve: open loop, linked brushing served by ServeCore over
// seeded ontime rows while a writer appends (paper Figures 13-14;
// "Provenance for Interactive Visualizations" frames the traffic).
//
// Four COUNT views (latlon, date, delay, carrier), adaptive codec, one
// admission worker. Two session threads send brushes on a fixed schedule —
// view uniform, bar uniform within the view — and each brush is timed from
// its due time. Every 16th operation of a session retains a backward trace,
// which pins its snapshot version. One writer thread appends 20 seeded
// 1,000-row batches evenly spaced across the nominal phase. After the
// nominal rate, a ladder doubling from 20 brushes/s, 100 brushes a step,
// finds the highest rate whose p90 (the highest percentile 100 brushes
// resolve) stays within the paper's 150 ms interactive line without a
// growing backlog. Then a closed-loop cost phase, outside every schedule,
// times 600 brushes each right after a calibration kernel run: cost_cal_x.
// The only workload where serve admission and epochs, apps linked brushing and
// refresh run, and the only one with writes beside reads.
#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <thread>

#include "apps/plan_crossfilter.h"
#include "serve/serve_core.h"
#include "serve/session.h"
#include "workloads.h"
#include "workloads/ontime.h"

namespace smokebench {
namespace {

using smoke::rid_t;
using smoke::Status;

constexpr size_t kBaseRows = 100000;
constexpr size_t kBatchRows = 1000;
constexpr size_t kBatches = 20;
constexpr double kNominalRate = 40;     // brushes per second, both sessions
constexpr size_t kNominalBrushes = 1000;  // at least; p99 needs 1,000
constexpr double kLadderStart = 20;
constexpr int kLadderSteps = 8;
constexpr size_t kLadderBrushes = 100;  // per step: resolves p90
constexpr double kLimitMs = 150;        // the interactive latency line
constexpr double kBacklogSlackMs = 50;  // queue growth tolerated per step
constexpr int kSessions = 2;
constexpr int kRetainEvery = 16;
constexpr int kWarmupBrushes = 40;
// The cost phase: closed-loop brushes, each after a calibration kernel run
// over ontime's row count.
constexpr size_t kCostBrushes = 600;
constexpr size_t kCalibrationRows = kBaseRows;

const char* const kViews[] = {"latlon", "date", "delay", "carrier"};
const int kViewCols[] = {smoke::ontime::kLatLonBin, smoke::ontime::kDateBin,
                         smoke::ontime::kDelayBin, smoke::ontime::kCarrier};
constexpr int kNumViews = 4;

smoke::ServeCore::ViewDef CountView(int col) {
  return [col](const smoke::SmokeEngine& engine, smoke::LogicalPlan* plan) {
    const smoke::Table* t = nullptr;
    SMOKE_RETURN_NOT_OK(engine.GetTable("ontime", &t));
    smoke::PlanBuilder b;
    smoke::GroupBySpec spec;
    spec.keys = {col};
    spec.aggs = {smoke::AggSpec::Count("cnt")};
    return b.Build(b.GroupBy(b.Scan(t, "ontime"), spec), plan);
  };
}

struct Setup {
  std::unique_ptr<smoke::ServeCore> core;
  std::vector<std::shared_ptr<smoke::ServeSession>> sessions;
  std::vector<smoke::Table> batches;  ///< the timed appends
  size_t view_rows[kNumViews] = {0, 0, 0, 0};  ///< bars at version 1
};

Status Load(uint64_t seed, Report* rep, Setup* s) {
  smoke::Table base;
  {
    Tracer::Scope span("workloads.generate");
    base = smoke::ontime::Generate(kBaseRows, seed);
    for (size_t j = 0; j <= kBatches; ++j) {
      s->batches.push_back(
          smoke::ontime::Generate(kBatchRows, seed * 1000003 + j + 1));
    }
  }
  smoke::ServeOptions opts;
  opts.num_threads = 1;
  opts.view_capture.lineage_codec = smoke::LineageCodec::kAdaptive;
  s->core = std::make_unique<smoke::ServeCore>("ontime", opts);
  {
    Tracer::Scope span("serve.start");
    SMOKE_RETURN_NOT_OK(s->core->CreateTable("ontime", std::move(base)));
    for (int v = 0; v < kNumViews; ++v) {
      SMOKE_RETURN_NOT_OK(s->core->DefineView(kViews[v], CountView(kViewCols[v])));
    }
    SMOKE_RETURN_NOT_OK(s->core->Start());
    for (int k = 0; k < kSessions; ++k) {
      std::shared_ptr<smoke::ServeSession> session;
      SMOKE_RETURN_NOT_OK(
          s->core->OpenSession("session" + std::to_string(k), &session));
      s->sessions.push_back(session);
    }
  }
  {
    smoke::ServeCore::SnapshotRef ref = s->core->AcquireSnapshot();
    for (int v = 0; v < kNumViews; ++v) {
      const smoke::Table* t = nullptr;
      SMOKE_RETURN_NOT_OK(ref.snapshot->engine.GetResult(kViews[v], &t));
      s->view_rows[v] = t->num_rows();
    }
  }
  // Warm-up: closed-loop brushes on every view, and one append (the
  // batch past the timed ones) so the incremental builder is seeded.
  for (int i = 0; i < kWarmupBrushes; ++i) {
    const int v = i % kNumViews;
    smoke::ServeSession::BrushResult r;
    Count(rep,
          s->sessions[i % kSessions]->Brush(
              kViews[v], static_cast<rid_t>(i % s->view_rows[v]), &r),
          "warm-up brush");
  }
  SMOKE_RETURN_NOT_OK(s->core->AppendRows("ontime", s->batches.back()));
  s->batches.pop_back();
  return Status::OK();
}

/// One scheduled brush: which view and bar.
struct Brush {
  int view = 0;
  rid_t bar = 0;
};

/// Per-phase observations beyond the open-loop records.
struct PhaseExtras {
  std::vector<double> call_ms;      ///< Brush call start -> return
  std::vector<double> linked_rows;  ///< rows per BrushResult
  std::vector<double> traced_ms, untraced_ms;  ///< latency from due
  std::vector<double> view_ms[kNumViews];      ///< latency from due, by view
  int64_t live_snapshots_max = 0;
};

/// Sends the brushes of `plan`, due every 1000/rate ms from `t0_ms`, split
/// across the session threads; sends stop `grace_ms` after the last due
/// time.
std::vector<OpenLoopRecord> RunSchedule(Setup* s, const std::vector<Brush>& plan,
                                        double rate, double t0_ms,
                                        double grace_ms, bool trace,
                                        Report* rep, PhaseExtras* extras) {
  const double interval = 1000.0 / rate;
  const double stop_ms = t0_ms + interval * static_cast<double>(plan.size()) +
                         grace_ms;
  std::vector<std::vector<OpenLoopRecord>> records(kSessions);
  std::vector<PhaseExtras> local(kSessions);
  std::vector<Report> calls(kSessions);
  std::vector<std::thread> threads;
  for (int k = 0; k < kSessions; ++k) {
    threads.emplace_back([&, k] {
      smoke::ServeSession& session = *s->sessions[k];
      int sent = 0;
      for (size_t i = static_cast<size_t>(k); i < plan.size(); i += kSessions) {
        OpenLoopRecord rec;
        rec.due_ms = t0_ms + interval * static_cast<double>(i);
        rec.sender_idle = NowMs() < rec.due_ms;
        if (rec.sender_idle) {
          std::this_thread::sleep_until(TimeAt(rec.due_ms));
        }
        if (NowMs() > stop_ms) break;
        const Brush& b = plan[i];
        const bool traced = trace && (i / kSessions) % 2 == 0;
        Tracer::TracedOp op(traced);
        smoke::ServeSession::BrushResult result;
        rec.start_ms = NowMs();
        {
          Tracer::Scope span("serve.brush");
          rec.ok = Count(&calls[k], session.Brush(kViews[b.view], b.bar, &result),
                         "Brush");
        }
        rec.end_ms = NowMs();
        records[k].push_back(rec);
        PhaseExtras& x = local[k];
        if (rec.ok) x.call_ms.push_back(rec.end_ms - rec.start_ms);
        double rows = 0;
        for (const auto& [name, linked] : result.views) {
          rows += static_cast<double>(linked.rids.size());
        }
        x.linked_rows.push_back(rows);
        (traced ? x.traced_ms : x.untraced_ms).push_back(rec.end_ms - rec.due_ms);
        x.view_ms[b.view].push_back(rec.end_ms - rec.due_ms);
        x.live_snapshots_max =
            std::max(x.live_snapshots_max, s->core->LiveSnapshots());
        if (traced) {
          Tracer::Scope root("bench.shadow");
          smoke::ServeCore::SnapshotRef ref;
          {
            Tracer::Scope span("serve.acquire");
            ref = s->core->AcquireSnapshot();
          }
          const smoke::PlanResult* from = nullptr;
          const smoke::PlanResult* to = nullptr;
          const char* to_name = kViews[(b.view + 1) % kNumViews];
          if (Count(&calls[k],
                    ref.snapshot->engine.GetPlanResult(kViews[b.view], &from),
                    "GetPlanResult") &&
              Count(&calls[k], ref.snapshot->engine.GetPlanResult(to_name, &to),
                    "GetPlanResult")) {
            smoke::LinkedBrush linked;
            Tracer::Scope span("apps.brush_linked");
            Count(&calls[k],
                  smoke::BrushLinkedPlans(*from, kViews[b.view], b.bar,
                                          "ontime", *to, to_name,
                                          smoke::CaptureOptions::Inject(),
                                          &linked),
                  "BrushLinkedPlans");
          }
        }
        if (++sent % kRetainEvery == 0) {
          Tracer::Scope span("serve.retain_trace");
          (void)session.DropRetainedTrace("pin").ok();  // absent the first time
          Count(&calls[k],
                session.RetainBackwardTrace("pin", kViews[b.view], {b.bar}),
                "RetainBackwardTrace");
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<OpenLoopRecord> all;
  for (int k = 0; k < kSessions; ++k) {
    all.insert(all.end(), records[k].begin(), records[k].end());
    rep->attempted += calls[k].attempted;
    rep->failed += calls[k].failed;
    for (const std::string& l : calls[k].lines) rep->Line(l);
    PhaseExtras& x = local[k];
    extras->call_ms.insert(extras->call_ms.end(), x.call_ms.begin(), x.call_ms.end());
    extras->linked_rows.insert(extras->linked_rows.end(), x.linked_rows.begin(),
                               x.linked_rows.end());
    extras->traced_ms.insert(extras->traced_ms.end(), x.traced_ms.begin(),
                             x.traced_ms.end());
    extras->untraced_ms.insert(extras->untraced_ms.end(), x.untraced_ms.begin(),
                               x.untraced_ms.end());
    for (int v = 0; v < kNumViews; ++v) {
      extras->view_ms[v].insert(extras->view_ms[v].end(), x.view_ms[v].begin(),
                                x.view_ms[v].end());
    }
    extras->live_snapshots_max =
        std::max(extras->live_snapshots_max, x.live_snapshots_max);
  }
  return all;
}

/// Views are drawn uniformly without replacement in blocks of four, so every
/// view gets exactly its share of any phase; bars are uniform within a view.
std::vector<Brush> PlanBrushes(const Setup& s, size_t n, std::mt19937_64* rng) {
  std::vector<Brush> plan(n);
  int block[kNumViews] = {0, 1, 2, 3};
  for (size_t i = 0; i < n; ++i) {
    if (i % kNumViews == 0) std::shuffle(block, block + kNumViews, *rng);
    Brush& b = plan[i];
    b.view = block[i % kNumViews];
    b.bar = static_cast<rid_t>(std::uniform_int_distribution<size_t>(
        0, s.view_rows[b.view] - 1)(*rng));
  }
  return plan;
}

/// The writer: appends every batch at its due time; returns per-call ms.
struct AppendResult {
  std::vector<double> ms;
  double rows_scanned = 0, index_bytes = 0, incremental = 0, views = 0;
};

void RunWriter(Setup* s, double t0_ms, double window_ms, bool trace,
               Report* calls, AppendResult* out) {
  for (size_t j = 0; j < s->batches.size(); ++j) {
    const double due = t0_ms + window_ms * (static_cast<double>(j) + 0.5) /
                                   static_cast<double>(s->batches.size());
    std::this_thread::sleep_until(TimeAt(due));
    Tracer::TracedOp op(trace);
    const double start = NowMs();
    bool ok;
    {
      Tracer::Scope span("refresh.append_rows");
      ok = Count(calls, s->core->AppendRows("ontime", s->batches[j]),
                 "AppendRows");
    }
    if (!ok) continue;
    out->ms.push_back(NowMs() - start);
    for (const smoke::RefreshStats& st : s->core->LastRefreshStats()) {
      out->rows_scanned += static_cast<double>(st.rows_scanned);
      out->index_bytes += static_cast<double>(st.index_bytes_appended);
      out->incremental += st.incremental ? 1 : 0;
    }
    out->views += kNumViews;
  }
}

/// Re-brushes a seeded sample on the final snapshot and compares every
/// linked count with a brute-force count over the final base table.
void Verify(Setup* s, uint64_t seed, Report* rep) {
  Tracer::TracedOp untraced(false);
  smoke::ServeCore::SnapshotRef ref = s->core->AcquireSnapshot();
  const smoke::SmokeEngine& e = ref.snapshot->engine;
  const smoke::Table* base = nullptr;
  const smoke::Table* out[kNumViews] = {};
  bool ok = e.GetTable("ontime", &base).ok();
  for (int v = 0; v < kNumViews; ++v) {
    ok = ok && e.GetResult(kViews[v], &out[v]).ok();
  }
  rep->Check(ok, "final snapshot is missing a table or view");
  if (!ok) return;
  std::mt19937_64 rng(seed ^ 0xb2054ULL);
  for (int i = 0; i < 24; ++i) {
    const int v = i % kNumViews;
    const rid_t bar = static_cast<rid_t>(
        std::uniform_int_distribution<size_t>(0, out[v]->num_rows() - 1)(rng));
    smoke::ServeSession::BrushResult result;
    const Status st = s->sessions[0]->Brush(kViews[v], bar, &result);
    rep->Check(st.ok(), "verification brush failed: " + st.ToString());
    if (!st.ok()) continue;
    const int64_t key = out[v]->column(0).ints()[bar];
    const auto& from_col = base->column(kViewCols[v]).ints();
    for (int w = 0; w < kNumViews; ++w) {
      if (w == v) continue;
      std::map<int64_t, int64_t> expect;
      const auto& to_col = base->column(kViewCols[w]).ints();
      for (size_t r = 0; r < from_col.size(); ++r) {
        if (from_col[r] == key) expect[to_col[r]]++;
      }
      auto it = result.views.find(kViews[w]);
      bool same = it != result.views.end() &&
                  it->second.rids.size() == expect.size() &&
                  it->second.counts.size() == expect.size();
      for (size_t p = 0; same && p < it->second.rids.size(); ++p) {
        const int64_t to_key = out[w]->column(0).ints()[it->second.rids[p]];
        auto ex = expect.find(to_key);
        same = ex != expect.end() && ex->second == it->second.counts[p];
      }
      rep->Check(same, std::string("brush ") + kViews[v] + " -> " + kViews[w] +
                           " linked counts differ from brute force");
    }
  }
}

/// The closed-loop cost phase, with nothing else running: one session
/// sends `plan`'s brushes one after another, each right after a calibration
/// kernel run (appended to `cal_ms`). Returns each brush's ServeSession::Brush
/// call time over its kernel run's.
std::vector<double> CostPhase(Setup* s, const std::vector<Brush>& plan,
                              Calibration* cal, Report* rep,
                              std::vector<double>* cal_ms) {
  std::vector<double> ratios;
  for (const Brush& b : plan) {
    cal_ms->push_back(cal->RunMs());
    smoke::ServeSession::BrushResult result;
    const Clock::time_point t0 = Clock::now();
    if (Count(rep, s->sessions[0]->Brush(kViews[b.view], b.bar, &result),
              "Brush")) {
      ratios.push_back(MsBetween(t0, Clock::now()) / cal_ms->back());
    }
  }
  return ratios;
}

}  // namespace

Report RunBrushServe(const Args& args) {
  Report rep;
  std::unique_ptr<Setup> setup;
  const std::vector<double> setup_s = RepeatSetUp<Setup>(
      [&](Setup* s) {
        Tracer::TracedOp op(args.trace);  // spans: generate and start only
        return Load(args.seed, &rep, s);
      },
      &setup, &rep);
  if (setup_s.empty()) return rep;
  Setup& s = *setup;
  rep.attempted = rep.failed = 0;
  std::mt19937_64 rng(args.seed * 0x2545f4914f6cdd1dULL + 3);

  // Nominal phase: brushes at the nominal rate, appends alongside. It holds
  // at least kNominalBrushes brushes, so its p99 resolves.
  const auto admission0 = s.core->AdmissionStats();
  const std::vector<Brush> nominal_plan = PlanBrushes(
      s,
      std::max(kNominalBrushes,
               static_cast<size_t>(kNominalRate * 0.6 * args.seconds)),
      &rng);
  const double nominal_ms =
      1000.0 * static_cast<double>(nominal_plan.size()) / kNominalRate;
  const double t0 = NowMs() + 20;
  PhaseExtras nominal;
  AppendResult appends;
  Report writer_calls;
  std::thread writer([&] {
    RunWriter(&s, t0, nominal_ms, args.trace, &writer_calls, &appends);
  });
  const std::vector<OpenLoopRecord> nominal_records = RunSchedule(
      &s, nominal_plan, kNominalRate, t0, 1000, args.trace, &rep, &nominal);
  writer.join();
  rep.attempted += writer_calls.attempted;
  rep.failed += writer_calls.failed;
  for (const std::string& l : writer_calls.lines) rep.Line(l);
  const auto admission1 = s.core->AdmissionStats();
  const uint64_t reclaimed = s.core->EpochStats().reclaimed;
  const OpenLoopStats nom =
      AccountOpenLoop(nominal_records, nominal_plan.size());
  rep.failed += nom.unsent;  // a brush never sent missed the latency limit
  rep.attempted += nom.unsent;

  // Ladder: doubling rates, kLadderBrushes brushes each, until the first
  // rate that misses the limit at the percentile those brushes resolve.
  double max_rate = 0;
  std::vector<double> late_ms = nom.late_ms;
  for (int step = 0; step < kLadderSteps; ++step) {
    const double rate = kLadderStart * static_cast<double>(1 << step);
    const std::vector<Brush> plan = PlanBrushes(s, kLadderBrushes, &rng);
    PhaseExtras ladder;
    Report ladder_calls;
    const OpenLoopStats st = AccountOpenLoop(
        RunSchedule(&s, plan, rate, NowMs() + 20, 1000, false, &ladder_calls,
                    &ladder),
        plan.size());
    rep.attempted += ladder_calls.attempted;
    rep.failed += ladder_calls.failed;
    late_ms.insert(late_ms.end(), st.late_ms.begin(), st.late_ms.end());
    const bool ok = MetLimit(st, plan.size(), kLimitMs, kBacklogSlackMs);
    const double pct = HighestResolvedPercentile(plan.size());
    rep.Line("ladder " + Num(rate) + "/s: " + std::to_string(st.sent) +
             " of " + std::to_string(plan.size()) + " sent, p" + Num(pct) +
             " " + Num(Percentile(st.latency_ms, pct)) +
             " ms, backlog growth " + Num(st.backlog_growth_ms) + " ms -> " +
             (ok ? "kept up" : "missed"));
    if (!ok) break;
    max_rate = rate;
  }

  // Cost phase: the brushing path over the calibration kernel, closed loop,
  // outside every open-loop schedule.
  Calibration cal(kCalibrationRows, 1);
  std::vector<double> cal_ms;
  const std::vector<double> cost =
      CostPhase(&s, PlanBrushes(s, kCostBrushes, &rng), &cal, &rep, &cal_ms);

  Verify(&s, args.seed, &rep);

  double final_bytes = 0, final_rows = 0;
  {
    smoke::ServeCore::SnapshotRef ref = s.core->AcquireSnapshot();
    final_bytes = static_cast<double>(
        ref.snapshot->engine.LineageMemoryStats().total_bytes);
    const smoke::Table* t = nullptr;
    if (ref.snapshot->engine.GetTable("ontime", &t).ok()) {
      final_rows = static_cast<double>(t->num_rows());
    }
  }
  ReportSetUp(setup_s, &rep);
  rep.Set("cost_cal_x", Median(cost), "x");
  rep.Set("lineage_bytes_per_row", final_bytes / final_rows, "B/row");
  rep.Line("cost_cal_x = " + Num(Median(cost)) +
           " x (Brush call / the calibration kernel run right before it, "
           "closed loop, median of " + std::to_string(cost.size()) +
           " brushes)");
  rep.PrintLatency("brush_ms", nom.latency_ms);
  for (int v = 0; v < kNumViews; ++v) {
    rep.Line(std::string("  ") + kViews[v] + ": p50 " +
             Num(Median(nominal.view_ms[v])) + " ms (n=" +
             std::to_string(nominal.view_ms[v].size()) + ")");
  }
  rep.Line("nominal phase: " + std::to_string(nom.sent) + " brushes sent of " +
           std::to_string(nominal_plan.size()) + " scheduled at " +
           Num(kNominalRate) + "/s, backlog growth " +
           Num(nom.backlog_growth_ms) + " ms");
  rep.Line("brush_max_rate = " + Num(max_rate) + " brushes/s (ladder from " +
           Num(kLadderStart) + "/s, " + std::to_string(kLadderBrushes) +
           " brushes a step, p" +
           Num(HighestResolvedPercentile(kLadderBrushes)) + " <= " +
           Num(kLimitMs) + " ms: the highest percentile a step resolves; "
           "no growing backlog)");
  rep.PrintLatency("append_ms", appends.ms);
  rep.Line("calibration_ms = " + Num(Median(cal_ms)) + " ms (median of " +
           std::to_string(cal_ms.size()) + " kernel runs, " +
           std::to_string(kCalibrationRows) + " rows, in the cost phase)");
  rep.Line("lineage_bytes_per_row = " + Num(final_bytes / final_rows) +
           " B/row (final snapshot)");

  if (args.trace) {
    const std::vector<Span> spans = Tracer::Collect();
    rep.Set("workloads.generate_s",
            MedianSpanMs(spans, "workloads.generate") / 1000.0, "s");
    rep.Set("serve.acquire_ms", MedianSpanMs(spans, "serve.acquire"), "ms");
    rep.Set("serve.brush_call_ms", Median(nominal.call_ms), "ms");
    rep.Set("load.queue_ms", Median(nom.queue_ms), "ms");
    const LatencySummary late = Summarize(late_ms);
    rep.Set("load.late_ms_p99", late.p99_resolved ? late.p99 : late.tail, "ms");
    rep.Line("load.late_ms_p99 from " + std::to_string(late_ms.size()) +
             " idle-sender requests" +
             (late.p99_resolved ? "" : " (p99 unresolved: p" +
                                           Num(late.tail_pct) + " reported)"));
    const double jobs = static_cast<double>(admission1.interactive.jobs -
                                            admission0.interactive.jobs);
    rep.Set("serve.admission_wait_ms",
            (admission1.interactive.total_wait_ms -
             admission0.interactive.total_wait_ms) /
                std::max(1.0, jobs),
            "ms");
    rep.Set("serve.admission_wait_max_ms", admission1.interactive.max_wait_ms,
            "ms");
    rep.Set("serve.batch_tasks",
            static_cast<double>(admission1.batch.tasks - admission0.batch.tasks),
            "count");
    double rows = 0;
    for (double r : nominal.linked_rows) rows += r;
    rep.Set("apps.linked_rows",
            rows / std::max<double>(1.0, static_cast<double>(nominal.linked_rows.size())),
            "count");
    rep.Set("refresh.rows_scanned", appends.rows_scanned, "count");
    rep.Set("refresh.index_bytes_appended", appends.index_bytes, "B");
    rep.Set("refresh.incremental_frac",
            appends.incremental / std::max(1.0, appends.views), "ratio");
    rep.Set("serve.live_snapshots_max",
            static_cast<double>(nominal.live_snapshots_max), "count");
    rep.Set("serve.reclaimed", static_cast<double>(reclaimed), "count");
    size_t traced_ops = 0;
    for (const Span& sp : spans) {
      if (sp.name == "serve.brush" || sp.name == "refresh.append_rows") {
        traced_ops++;
      }
    }
    ReportLayerSelfTimes(spans, traced_ops, &rep);
    rep.Set("trace.overhead_pct",
            100.0 * (Median(nominal.traced_ms) - Median(nominal.untraced_ms)) /
                Median(nominal.untraced_ms),
            "%");

    // lineage.growth_x: the live store against a fresh encode of identical
    // contents (ReplaceTable rebuilds every view anew).
    smoke::Table copy;
    {
      smoke::ServeCore::SnapshotRef ref = s.core->AcquireSnapshot();
      const smoke::Table* t = nullptr;
      if (ref.snapshot->engine.GetTable("ontime", &t).ok()) copy = *t;
    }
    const Status replaced = s.core->ReplaceTable("ontime", std::move(copy));
    rep.Check(replaced.ok(), "ReplaceTable failed: " + replaced.ToString());
    smoke::ServeCore::SnapshotRef ref = s.core->AcquireSnapshot();
    const double fresh = static_cast<double>(
        ref.snapshot->engine.LineageMemoryStats().total_bytes);
    rep.Line("lineage growth: " + Num(final_bytes) + " B live vs " +
             Num(fresh) + " B freshly encoded");
    rep.Set("lineage.growth_x", final_bytes / fresh, "x");
  }
  return rep;
}

}  // namespace smokebench
