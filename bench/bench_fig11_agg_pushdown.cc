// Figure 11 (+ the Section 6.4 "NoOptimization" comparison): lineage
// consuming query latency for the TPC-H Q1c drill-down under Lazy, plain
// lineage indexes (No Agg Pushdown), and group-by push-down (~0ms — just
// fetches the materialized aggregates). Lazy and indexed are the kLazy and
// kIndexed strategies of one TraceBuilder consuming query; Q1c traces the
// retained Q1b plan. Paper: Smoke-I beats Lazy by 72.9x on average;
// push-down is ~0ms.
#include "harness.h"

#include "capture/cube_index.h"
#include "engine/spja.h"
#include "query/trace_builder.h"
#include "workloads/tpch.h"

namespace smoke {
namespace {

/// Mean latency of `spec` over Lb(oid, lineitem) of `src` under `strategy`,
/// without capture.
double ConsumingMs(const bench::Options& opts, const TraceSource& src,
                   rid_t oid, const ConsumingSpec& spec,
                   TraceStrategy strategy) {
  LineageQuery q;
  SMOKE_CHECK(TraceBuilder::Backward(src, "lineitem", {oid})
                  .Consuming(spec)
                  .Strategy(strategy)
                  .Compile(&q)
                  .ok());
  return bench::Measure(opts, [&] {
           PlanResult pr;
           SMOKE_CHECK(q.Execute(CaptureOptions::None(), &pr).ok());
         })
      .mean_ms;
}

void Run(const bench::Options& opts) {
  const double sf =
      opts.scale > 0 ? opts.scale : (opts.smoke ? 0.01 : (opts.full ? 1.0 : 0.1));
  bench::Banner("Figure 11",
                "Aggregation push-down: Q1c consuming-query latency (Lazy vs "
                "indexed vs pushdown)");
  std::printf("scale factor %.2f\n", sf);
  tpch::Database db = tpch::Generate(sf);
  SPJAQuery q1 = tpch::MakeQ1(db);
  auto base = SPJAExec(q1, CaptureOptions::Inject());
  TraceSource q1_src = TraceSource::FromSpja(q1, base, "q1");

  // Section 6.4 NoOptimization: Q1a per Q1 output group, Lazy vs Smoke-I.
  ConsumingSpec q1a = tpch::MakeQ1a(db);
  for (rid_t oid = 0; oid < base.output.num_rows(); ++oid) {
    const RidVec& rids = base.lineage.input(0).backward.index().list(oid);
    const double lazy_ms =
        ConsumingMs(opts, q1_src, oid, q1a, TraceStrategy::kLazy);
    const double smoke_ms =
        ConsumingMs(opts, q1_src, oid, q1a, TraceStrategy::kIndexed);
    bench::Row("fig11", "q1a,group=" + std::to_string(oid) +
                            ",selectivity=" +
                            bench::F(static_cast<double>(rids.size()) /
                                     static_cast<double>(db.lineitem.num_rows())) +
                            ",lazy_ms=" + bench::F(lazy_ms) +
                            ",smoke_ms=" + bench::F(smoke_ms));
  }

  // Q1c: for each Q1 group and each Q1b parameterization, evaluate Q1c over
  // the retained Q1b plan's backward lineage. Pushdown materializes the
  // l_tax cube during the Q1b pass, so Q1c becomes a lookup.
  const std::vector<std::pair<std::string, std::string>> params = {
      {"MAIL", "NONE"}, {"SHIP", "COLLECT COD"}};
  for (rid_t oid = 0; oid < base.output.num_rows(); ++oid) {
    for (const auto& [mode, instr] : params) {
      ConsumingSpec q1b = tpch::MakeQ1b(db, mode, instr);
      PlanResult q1b_res;
      SMOKE_CHECK(TraceBuilder::Backward(q1_src, "lineitem", {oid})
                      .Consuming(q1b)
                      .Strategy(TraceStrategy::kIndexed)
                      .Execute(CaptureOptions::Inject(), &q1b_res)
                      .ok());
      const int rel = q1b_res.lineage.FindInput("lineitem");
      SMOKE_CHECK(rel >= 0);
      const LineageIndex& q1b_bw =
          q1b_res.lineage.input(static_cast<size_t>(rel)).backward;
      TraceSource q1b_src = TraceSource::FromPlan(q1b_res, "q1b");
      ConsumingSpec q1c = tpch::MakeQ1c(db, mode, instr);

      // Group-by push-down: the l_tax cube materialized during the Q1b
      // pass (one cube group per Q1b output group).
      CubeIndex cube;
      cube.Init(db.lineitem, {tpch::kLTax}, q1b.aggs);
      const size_t q1b_rows = q1b_res.output.num_rows();
      std::vector<rid_t> sub;
      for (size_t ob = 0; ob < q1b_rows; ++ob) {
        cube.AddGroup();
        sub.clear();
        q1b_bw.TraceInto(static_cast<rid_t>(ob), &sub);
        for (rid_t r : sub) cube.Update(static_cast<uint32_t>(ob), r);
      }

      for (size_t ob = 0; ob < q1b_rows;
           ob += std::max<size_t>(1, q1b_rows / 4)) {
        sub.clear();
        q1b_bw.TraceInto(static_cast<rid_t>(ob), &sub);
        // Lazy: full scan with the Q1 group's predicates and Q1c's filters.
        const double lazy_ms =
            ConsumingMs(opts, q1_src, oid, q1c, TraceStrategy::kLazy);
        const double indexed_ms = ConsumingMs(
            opts, q1b_src, static_cast<rid_t>(ob), q1c, TraceStrategy::kIndexed);
        RunStats pushdown = bench::Measure(opts, [&] {
          cube.GroupTable(static_cast<uint32_t>(ob));  // just a lookup
        });
        bench::Row(
            "fig11",
            "q1c,group=" + std::to_string(oid) + ",mode=" + mode +
                ",q1b_group=" + std::to_string(ob) + ",selectivity=" +
                bench::F(static_cast<double>(sub.size()) /
                         static_cast<double>(db.lineitem.num_rows())) +
                ",lazy_ms=" + bench::F(lazy_ms) + ",no_pushdown_ms=" +
                bench::F(indexed_ms) + ",pushdown_ms=" +
                bench::F(pushdown.mean_ms));
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
