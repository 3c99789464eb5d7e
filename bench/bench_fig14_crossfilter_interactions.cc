// Figure 14: per-interaction (1D brush) latency for each crossfilter view,
// against the 150ms interactive threshold. Expected shape: BT+FT under
// 150ms for essentially all interactions (paper: all but 5 of 8,100) and
// <10ms on the high-cardinality spatiotemporal views; BT above BT+FT; Lazy
// worst; interactions brushing bars whose lineage covers a large input
// fraction are the slow tail.
#include "harness.h"

#include <algorithm>

#include "crossfilter_strategies.h"
#include "workloads/ontime.h"

namespace smoke {
namespace {

const char* kViewNames[] = {"LatLon", "Date", "DepDelay", "Carrier"};

void Run(const bench::Options& opts) {
  const size_t rows = opts.full ? 20000000 : (opts.smoke ? 50000 : 2000000);
  bench::Banner("Figure 14",
                "Per-interaction crossfilter latency by view (150ms line)");
  std::printf("rows=%zu (paper: 123.5M)\n", rows);
  Table data = ontime::Generate(rows);
  const std::vector<int> dims = {ontime::kLatLonBin, ontime::kDateBin,
                                 ontime::kDelayBin, ontime::kCarrier};

  struct Strategy {
    const char* name;
    bench::CfStrategy strategy;
    size_t sample;
  };
  const Strategy strategies[] = {
      {"Lazy", bench::CfStrategy::kLazy, 200},
      {"BT", bench::CfStrategy::kBT, 20},
      {"BT+FT", bench::CfStrategy::kBTFT, 1},
  };

  for (const Strategy& s : strategies) {
    bench::CrossfilterSession cf(data, "ontime", dims, s.strategy);
    cf.Initialize();
    for (size_t v = 0; v < cf.num_views(); ++v) {
      std::vector<double> lat;
      size_t over_150 = 0;
      for (rid_t bar = 0; bar < cf.NumBars(v); bar += s.sample) {
        WallTimer t;
        const int64_t got = cf.Brush(v, bar);
        double ms = t.ElapsedMs();
        SMOKE_CHECK(got == cf.BarCount(v, bar) *
                               static_cast<int64_t>(cf.num_views() - 1) &&
                    "a brush lost or gained rows");
        lat.push_back(ms);
        over_150 += ms > 150.0;
      }
      std::sort(lat.begin(), lat.end());
      auto pct = [&](double p) {
        return lat[std::min(lat.size() - 1,
                            static_cast<size_t>(p * static_cast<double>(lat.size())))];
      };
      bench::Row(
          "fig14",
          std::string("mode=") + s.name + ",view=" + kViewNames[v] +
              ",interactions=" + std::to_string(lat.size()) + ",p50_ms=" +
              bench::F(pct(0.5)) + ",p95_ms=" + bench::F(pct(0.95)) +
              ",max_ms=" + bench::F(lat.back()) + ",over_150ms=" +
              std::to_string(over_150));
    }
  }
  std::printf("(DataCube responses are array lookups — effectively "
              "instantaneous, as in the paper; see Figure 13 for its build "
              "cost.)\n");
}

}  // namespace
}  // namespace smoke

int main(int argc, char** argv) {
  smoke::Run(smoke::bench::Options::Parse(argc, argv));
  return 0;
}
