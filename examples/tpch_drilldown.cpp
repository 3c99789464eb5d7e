// The "Overview first, zoom and filter, details on demand" drill-down of
// the paper's Section 6.4, on TPC-H: Q1 is the overview; Q1a drills into
// one bar by (year, month); Q1b filters with parameterized predicates
// (answered from a data-skipping partitioned index); details-on-demand is a
// plain backward lineage query.
//
//   $ ./example_tpch_drilldown
#include <cstdio>

#include "common/macros.h"
#include "common/timer.h"
#include "engine/spja.h"
#include "query/lineage_query.h"
#include "query/trace_builder.h"
#include "workloads/tpch.h"

using namespace smoke;

int main() {
  std::printf("Generating TPC-H (SF 0.05)...\n");
  tpch::Database db = tpch::Generate(0.05);
  SPJAQuery q1 = tpch::MakeQ1(db);

  // Overview: Q1 with lineage capture. A second capture partitions the
  // backward lists on the attributes the filter widgets will use (data
  // skipping); the partitioned index replaces the plain one, so zoom and
  // details read the first capture and filters the second.
  WallTimer timer;
  auto base = SPJAExec(q1, CaptureOptions::Inject());
  std::printf("Q1 overview + capture: %.1f ms, %zu bars\n",
              timer.ElapsedMs(), base.output.num_rows());
  std::printf("%s\n", base.output.ToString().c_str());
  SPJAPushdown push;
  push.skip_cols = {tpch::kLShipmode, tpch::kLShipinstruct};
  auto skip_base = SPJAExec(q1, CaptureOptions::Inject(), &push);

  // Zoom: drill into bar 0 by (year, month) — a consuming query over the
  // bar's backward lineage.
  const RidVec& bar0 = base.lineage.input(0).backward.index().list(0);
  timer.Start();
  PlanResult drill;
  SMOKE_CHECK(TraceBuilder::Backward(TraceSource::FromSpja(q1, base, "q1"),
                                     "lineitem", {0})
                  .Consuming(tpch::MakeQ1a(db))
                  .Strategy(TraceStrategy::kIndexed)
                  .Execute(CaptureOptions::None(), &drill)
                  .ok());
  std::printf("Q1a drill-down (bar 0, %zu rows): %.1f ms, %zu (year, month) "
              "cells\n",
              bar0.size(), timer.ElapsedMs(), drill.output.num_rows());

  // Filter: the user sets shipmode=MAIL, shipinstruct=NONE on a widget;
  // the skipping strategy scans only the matching rid partition.
  LineageQuery q1b;
  SMOKE_CHECK(TraceBuilder::Backward(
                  TraceSource::FromSpja(q1, skip_base, "q1skip"), "lineitem",
                  {0})
                  .Consuming(tpch::MakeQ1b(db, "MAIL", "NONE"))
                  .Strategy(TraceStrategy::kSkipping)
                  .Compile(&q1b)
                  .ok());
  timer.Start();
  PlanResult filtered;
  SMOKE_CHECK(q1b.Execute(CaptureOptions::None(), &filtered).ok());
  std::printf("Q1b with data skipping: %.2f ms, %zu cells (<150ms "
              "interactive)\n",
              timer.ElapsedMs(), filtered.output.num_rows());

  // Details on demand: materialize a few lineage rows of bar 0.
  std::vector<rid_t> sample(bar0.begin(),
                            bar0.begin() + std::min<size_t>(5, bar0.size()));
  Table details = MaterializeRows(db.lineitem, sample);
  std::printf("\nDetails on demand (5 of bar 0's input rows):\n%s\n",
              details.ToString().c_str());
  return 0;
}
