// Checks of the benchmark's own helpers (smokebench --selftest): the
// percentile-resolution rule, open-loop due-time and lateness accounting,
// the ladder's pass rule, the calibration kernel, and span self time.
// run.py runs them before every measured run.
#include <cmath>
#include <cstdio>
#include <string>

#include "workloads.h"

namespace smokebench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (ok) return;
  g_failures++;
  std::printf("selftest FAILED: %s\n", what.c_str());
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void PercentileRule() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  Expect(Near(Percentile(v, 50), 500), "median of 1..1000 is 500");
  Expect(Near(Percentile(v, 99), 990), "p99 of 1..1000 is 990");
  Expect(PercentileResolved(1000, 99), "1000 samples resolve p99");
  Expect(!PercentileResolved(999, 99), "999 samples leave p99 unresolved");
  Expect(PercentileResolved(20, 50), "20 samples resolve the median");
  Expect(!PercentileResolved(19, 50), "19 samples leave the median unresolved");
  Expect(Near(HighestResolvedPercentile(1000), 99), "1000 -> p99");
  Expect(Near(HighestResolvedPercentile(10000), 99.9), "10000 -> p99.9");
  Expect(Near(HighestResolvedPercentile(480), 95), "480 -> p95");
  Expect(Near(HighestResolvedPercentile(5), 0), "5 samples resolve nothing");

  const LatencySummary s = Summarize(std::vector<double>(v.begin(), v.begin() + 500));
  Expect(!s.p99_resolved && Near(s.p99, 0),
         "an unresolved p99 is not filled from a lower percentile");
  Expect(Near(s.tail_pct, 98) && Near(s.tail, 490),
         "500 samples: highest resolved percentile p98 = 490");
}

void OpenLoopAccounting() {
  // Four requests due every 10 ms. The second one stalls for 25 ms, so the
  // third (sent by the same busy sender) starts 15 ms late.
  std::vector<OpenLoopRecord> recs = {
      {0, 0.5, 2, true, true},
      {10, 10, 35, true, true},
      {20, 35, 37, true, false},
      {30, 37, 39, false, false},
  };
  const OpenLoopStats s = AccountOpenLoop(recs, 6);
  Expect(s.sent == 4 && s.unsent == 2, "sent/unsent counted");
  Expect(s.failed == 1, "a failed request is counted");
  Expect(s.latency_ms.size() == 3 && Near(s.latency_ms[0], 2) &&
             Near(s.latency_ms[1], 25) && Near(s.latency_ms[2], 17),
         "latency is measured from the due time");
  Expect(s.queue_ms.size() == 4 && Near(s.queue_ms[2], 15) &&
             Near(s.queue_ms[3], 7),
         "queue delay is start minus due");
  Expect(s.late_ms.size() == 2 && Near(s.late_ms[0], 0.5),
         "generator lateness counts idle-sender requests only");
  Expect(Near(s.backlog_growth_ms, 7 - 0.5), "backlog growth last vs first quarter");
  Expect(!KeptUp(s, 100), "unsent requests mean the phase did not keep up");

  std::vector<OpenLoopRecord> steady;
  for (int i = 0; i < 40; ++i) {
    const double due = 10.0 * i;
    steady.push_back({due, due + 1, due + 3, true, true});
  }
  Expect(KeptUp(AccountOpenLoop(steady, 40), 1), "a steady schedule keeps up");
  std::vector<OpenLoopRecord> growing;
  for (int i = 0; i < 40; ++i) {
    const double due = 10.0 * i;
    growing.push_back({due, due + 5.0 * i, due + 5.0 * i + 2, true, false});
  }
  Expect(!KeptUp(AccountOpenLoop(growing, 40), 50), "a growing queue is caught");
}

void LadderRule() {
  // 100 brushes resolve p90: at most 10 of them may exceed the limit.
  std::vector<OpenLoopRecord> recs;
  for (int i = 0; i < 100; ++i) {
    const double due = 10.0 * i;
    recs.push_back({due, due, due + (i % 10 == 0 ? 200.0 : 5.0), true, true});
  }
  Expect(MetLimit(AccountOpenLoop(recs, 100), 100, 150, 50),
         "10 of 100 over the limit: p90 within it");
  recs[1].end_ms = recs[1].due_ms + 151;
  Expect(!MetLimit(AccountOpenLoop(recs, 100), 100, 150, 50),
         "11 of 100 over the limit: p90 beyond it");
  recs[1].end_ms = recs[1].due_ms + 5;
  recs[2].ok = false;
  Expect(!MetLimit(AccountOpenLoop(recs, 100), 100, 150, 50),
         "a failed request counts as over the limit");
  recs[2].ok = true;
  recs.pop_back();
  Expect(!MetLimit(AccountOpenLoop(recs, 100), 100, 150, 50),
         "an unsent request counts as over the limit");
  Expect(!MetLimit(AccountOpenLoop({}, 5), 5, 150, 50),
         "a step that resolves no percentile does not pass");

  Calibration cal(1000, 2);
  Expect(cal.RunMs() > 0 && cal.MedianMs(3) > 0,
         "the calibration kernel takes measurable time");
}

void SpanSelfTime() {
  // root [0,100] with children [10,30] and [20,50] (overlapping: 40 ms
  // covered) and a grandchild [12,14] under the first child.
  std::vector<Span> spans(4);
  spans[0] = {1, 0, 1, 1, "bench.op", 0, 100};
  spans[1] = {2, 1, 1, 1, "core.a", 10, 30};
  spans[2] = {3, 1, 1, 1, "plan.b", 20, 50};
  spans[3] = {4, 2, 1, 1, "lineage.c", 12, 14};
  const std::vector<double> self = SelfTimes(spans);
  Expect(Near(self[0], 60), "root self time excludes the union of children");
  Expect(Near(self[1], 18), "child self time excludes its own child");
  Expect(Near(self[2], 30) && Near(self[3], 2), "leaf self time is its duration");
  Expect(LayerOf("core.trace.backward") == "core", "layer is the name prefix");

  // Spans recorded through the tracer nest and carry one op id.
  Tracer::Enable();
  {
    Tracer::TracedOp op(true);
    Tracer::Scope outer("bench.selftest");
    { Tracer::Scope inner("core.selftest"); }
  }
  {
    Tracer::TracedOp op(false);
    Tracer::Scope ignored("core.untraced");
  }
  const std::vector<Span> rec = Tracer::Collect();
  Expect(rec.size() == 2, "untraced operations record no spans");
  if (rec.size() == 2) {
    Expect(rec[1].parent == rec[0].id && rec[1].op_id == rec[0].op_id,
           "a nested span records its parent and shares the op id");
    Expect(rec[0].end_ms >= rec[1].end_ms, "the parent ends after its child");
  }
}

}  // namespace

int RunSelfTest() {
  PercentileRule();
  OpenLoopAccounting();
  LadderRule();
  SpanSelfTime();
  return g_failures;
}

}  // namespace smokebench
