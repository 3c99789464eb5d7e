// Figure 13: cumulative latency to run the initial crossfilter view
// queries (with capture / cube build) and then brush every bar of every
// view. Expected shape: BT+FT completes the whole benchmark fastest and
// before the data cube finishes building; BT beats Lazy; the cube's
// interactions are near-instantaneous but its offline build dominates
// (the cold-start problem). The strategies are built from TraceBuilder and
// the linked-brush kernels (crossfilter_strategies.h).
#include "harness.h"

#include "crossfilter_strategies.h"
#include "workloads/ontime.h"

namespace smoke {
namespace {

void Run(const bench::Options& opts) {
  const size_t rows = opts.full ? 20000000 : (opts.smoke ? 50000 : 2000000);
  bench::Banner("Figure 13",
                "Crossfilter cumulative latency (Ontime-like; 4 views; "
                "brush every bar)");
  std::printf("rows=%zu (paper: 123.5M)\n", rows);
  Table data = ontime::Generate(rows);
  const std::vector<int> dims = {ontime::kLatLonBin, ontime::kDateBin,
                                 ontime::kDelayBin, ontime::kCarrier};

  struct Strategy {
    const char* name;
    bench::CfStrategy strategy;
    size_t brush_sample;  // brush every k-th bar (1 = all); Lazy is too
                          // slow to brush all ~8100 bars at full scale.
  };
  const Strategy strategies[] = {
      {"Lazy", bench::CfStrategy::kLazy, 100},
      {"BT", bench::CfStrategy::kBT, 10},
      {"BT+FT", bench::CfStrategy::kBTFT, 1},
      {"DataCube", bench::CfStrategy::kCube, 1},
  };

  for (const Strategy& s : strategies) {
    bench::CrossfilterSession cf(data, "ontime", dims, s.strategy);
    WallTimer init_timer;
    cf.Initialize();
    double init_ms = init_timer.ElapsedMs();

    size_t total_bars = 0, brushed = 0;
    int64_t wrong = 0;  // brushes whose recomputed counts miss rows
    WallTimer brush_timer;
    for (size_t v = 0; v < cf.num_views(); ++v) {
      total_bars += cf.NumBars(v);
      for (rid_t bar = 0; bar < cf.NumBars(v); bar += s.brush_sample) {
        const int64_t want =
            cf.BarCount(v, bar) * static_cast<int64_t>(cf.num_views() - 1);
        wrong += cf.Brush(v, bar) != want;
        ++brushed;
      }
    }
    double brush_ms = brush_timer.ElapsedMs();
    SMOKE_CHECK(wrong == 0 && "a brush lost or gained rows");
    // Extrapolate sampled strategies to the full interaction count.
    double est_total_brush =
        brush_ms * static_cast<double>(total_bars) /
        static_cast<double>(brushed);
    bench::Row("fig13",
               std::string("mode=") + s.name + ",init_ms=" +
                   bench::F(init_ms) + ",brushed=" + std::to_string(brushed) +
                   ",brush_ms=" + bench::F(brush_ms) +
                   ",est_cumulative_ms=" + bench::F(init_ms + est_total_brush) +
                   ",total_bars=" + std::to_string(total_bars) +
                   ",index_mb=" +
                   bench::F(static_cast<double>(cf.IndexMemoryBytes()) / 1e6));
  }
}

}  // namespace
}  // namespace smoke

int main(int argc, char** argv) {
  smoke::Run(smoke::bench::Options::Parse(argc, argv));
  return 0;
}
