// Figure 12: relative instrumentation overhead of the Q1b consuming-query
// pass per Q1 output group, without vs with aggregation push-down. Paper:
// average overhead rises from ~2.9% to ~9.15% with push-down — the price of
// partitioning the rid arrays on l_tax and maintaining the sub-aggregates.
// The Q1b pass is one compiled TraceBuilder consuming query, run with
// capture off (CaptureOptions::None) and on (Inject).
#include "harness.h"

#include "capture/cube_index.h"
#include "engine/spja.h"
#include "query/trace_builder.h"
#include "workloads/tpch.h"

namespace smoke {
namespace {

void Run(const bench::Options& opts) {
  const double sf =
      opts.scale > 0 ? opts.scale : (opts.smoke ? 0.01 : (opts.full ? 1.0 : 0.1));
  bench::Banner("Figure 12",
                "Capture overhead of the Q1b pass without/with aggregation "
                "push-down, per Q1 output group");
  std::printf("scale factor %.2f\n", sf);
  tpch::Database db = tpch::Generate(sf);
  SPJAQuery q1 = tpch::MakeQ1(db);
  auto base = SPJAExec(q1, CaptureOptions::Inject());
  ConsumingSpec q1b = tpch::MakeQ1b(db, "MAIL", "NONE");

  for (rid_t oid = 0; oid < base.output.num_rows(); ++oid) {
    LineageQuery q;
    SMOKE_CHECK(TraceBuilder::Backward(TraceSource::FromSpja(q1, base, "q1"),
                                       "lineitem", {oid})
                    .Consuming(q1b)
                    .Strategy(TraceStrategy::kIndexed)
                    .Compile(&q)
                    .ok());

    // Non-instrumented: evaluate Q1b without capturing lineage.
    RunStats plain = bench::Measure(opts, [&] {
      PlanResult pr;
      SMOKE_CHECK(q.Execute(CaptureOptions::None(), &pr).ok());
    });
    // Instrumented (no push-down): capture the consuming query's backward
    // lineage.
    RunStats captured = bench::Measure(opts, [&] {
      PlanResult pr;
      SMOKE_CHECK(q.Execute(CaptureOptions::Inject(), &pr).ok());
    });
    // Instrumented + push-down: additionally maintain the l_tax cube.
    RunStats pushdown = bench::Measure(opts, [&] {
      PlanResult pr;
      SMOKE_CHECK(q.Execute(CaptureOptions::Inject(), &pr).ok());
      const LineageIndex& bw = pr.lineage.input(0).backward;
      CubeIndex cube;
      cube.Init(db.lineitem, {tpch::kLTax}, q1b.aggs);
      std::vector<rid_t> rids;
      for (size_t ob = 0; ob < pr.output.num_rows(); ++ob) {
        cube.AddGroup();
        rids.clear();
        bw.TraceInto(static_cast<rid_t>(ob), &rids);
        for (rid_t r : rids) cube.Update(static_cast<uint32_t>(ob), r);
      }
    });

    double no_push_pct =
        100.0 * (captured.mean_ms - plain.mean_ms) / plain.mean_ms;
    double push_pct =
        100.0 * (pushdown.mean_ms - plain.mean_ms) / plain.mean_ms;
    bench::Row("fig12", "group=o_" + std::to_string(oid) +
                            ",no_pushdown_overhead_pct=" +
                            bench::F(no_push_pct) +
                            ",pushdown_overhead_pct=" + bench::F(push_pct));
  }
}

}  // namespace
}  // namespace smoke

int main(int argc, char** argv) {
  smoke::Run(smoke::bench::Options::Parse(argc, argv));
  return 0;
}
