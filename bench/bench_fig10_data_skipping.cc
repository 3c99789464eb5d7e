// Figure 10: lineage consuming query latency (TPC-H Q1b: Q1a plus two
// parameterized text predicates) vs query selectivity, for Lazy (full table
// scan), No Data Skipping (secondary index scan over the backward index)
// and Data Skipping (scan only the matching rid partition) — the kLazy,
// kIndexed and kSkipping strategies of one TraceBuilder consuming query.
// Expected shape: skipping is below the 150ms interactive threshold
// everywhere and at least ~2x better than Lazy even at high selectivity;
// plain indexes win at low selectivity but are bottlenecked by secondary
// scan costs for large groups. Also reports the capture cost of
// partitioning (paper: 0.22x without vs 1.65x with skipping on Q1).
#include "harness.h"

#include "engine/spja.h"
#include "query/trace_builder.h"
#include "workloads/tpch.h"

namespace smoke {
namespace {

void Run(const bench::Options& opts) {
  const double sf =
      opts.scale > 0 ? opts.scale : (opts.smoke ? 0.01 : (opts.full ? 1.0 : 0.1));
  bench::Banner("Figure 10",
                "Data skipping: Q1b consuming-query latency vs selectivity");
  std::printf("scale factor %.2f\n", sf);
  tpch::Database db = tpch::Generate(sf);
  SPJAQuery q1 = tpch::MakeQ1(db);

  // Capture cost: Smoke-I vs Smoke-I + skip partitioning.
  double base_ms = bench::Measure(opts, [&] {
    SPJAExec(q1, CaptureOptions::None());
  }).mean_ms;
  double inject_ms = bench::Measure(opts, [&] {
    SPJAExec(q1, CaptureOptions::Inject());
  }).mean_ms;
  SPJAPushdown push;
  push.skip_cols = {tpch::kLShipmode, tpch::kLShipinstruct};
  double skip_ms = bench::Measure(opts, [&] {
    SPJAExec(q1, CaptureOptions::Inject(), &push);
  }).mean_ms;
  auto base = SPJAExec(q1, CaptureOptions::Inject());
  auto skip_base = SPJAExec(q1, CaptureOptions::Inject(), &push);
  bench::Row("fig10", "capture,mode=Baseline,ms=" + bench::F(base_ms));
  bench::Row("fig10", "capture,mode=Smoke-I,ms=" + bench::F(inject_ms) +
                          ",overhead_x=" +
                          bench::F((inject_ms - base_ms) / base_ms) + "," +
                          bench::LineageBytesKv(base.lineage));
  bench::Row("fig10",
             "capture,mode=Smoke-I+Skip,ms=" + bench::F(skip_ms) +
                 ",overhead_x=" + bench::F((skip_ms - base_ms) / base_ms) +
                 ",lineage_bytes=" +
                 std::to_string(skip_base.lineage.MemoryBytes() +
                                skip_base.skip_index.MemoryBytes()));
  const size_t total_rows = db.lineitem.num_rows();
  TraceSource src = TraceSource::FromSpja(q1, base, "q1");
  TraceSource skip_src = TraceSource::FromSpja(q1, skip_base, "q1skip");

  // Every (shipmode, shipinstruct) combination x every Q1 output group.
  // CI quick mode samples one combination and two groups.
  std::vector<std::string> modes = tpch::ShipModes();
  std::vector<std::string> instrs = tpch::ShipInstructs();
  if (opts.smoke) {
    modes.resize(1);
    instrs.resize(1);
  }
  for (const std::string& mode : modes) {
    for (const std::string& instr : instrs) {
      ConsumingSpec q1b = tpch::MakeQ1b(db, mode, instr);
      const size_t num_groups =
          opts.smoke ? std::min<size_t>(2, base.output.num_rows())
                     : base.output.num_rows();
      for (rid_t oid = 0; oid < num_groups; ++oid) {
        const RidVec& rids =
            base.lineage.input(0).backward.index().list(oid);
        double selectivity = static_cast<double>(rids.size()) /
                             static_cast<double>(total_rows) /
                             (7.0 * 4.0);  // one of 28 partitions
        // One row per rewriter setting: regressions of the optimized
        // plan-compiled path show up as optimizer=on drifting off the
        // optimizer=off series.
        for (bool optimize : {true, false}) {
          auto time_ms = [&](const TraceSource& s, TraceStrategy strategy) {
            LineageQuery q;
            SMOKE_CHECK(TraceBuilder::Backward(s, "lineitem", {oid})
                            .Consuming(q1b)
                            .Strategy(strategy)
                            .Optimize(optimize)
                            .Compile(&q)
                            .ok());
            return bench::Measure(opts, [&] {
                     PlanResult pr;
                     SMOKE_CHECK(q.Execute(CaptureOptions::None(), &pr).ok());
                   })
                .mean_ms;
          };
          const double lazy_ms = time_ms(src, TraceStrategy::kLazy);
          const double indexed_ms = time_ms(src, TraceStrategy::kIndexed);
          const double skipping_ms =
              time_ms(skip_src, TraceStrategy::kSkipping);
          bench::Row("fig10",
                     "mode=" + mode + ",instr=" + instr + ",group=" +
                         std::to_string(oid) + ",selectivity=" +
                         bench::F(selectivity) + ",optimizer=" +
                         (optimize ? "on" : "off") + ",lazy_ms=" +
                         bench::F(lazy_ms) + ",plan_indexed_ms=" +
                         bench::F(indexed_ms) + ",plan_skip_ms=" +
                         bench::F(skipping_ms));
        }
      }
    }
  }
}

}  // namespace
}  // namespace smoke

int main(int argc, char** argv) {
  smoke::Run(smoke::bench::Options::Parse(argc, argv));
  return 0;
}
