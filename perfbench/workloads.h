// The benchmark's workloads and the metric catalogue they report into.
#ifndef SMOKE_PERFBENCH_WORKLOADS_H_
#define SMOKE_PERFBENCH_WORKLOADS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "benchlib.h"
#include "common/status.h"
#include "engine/capture.h"

namespace smokebench {

/// Capture configuration every workload uses: two morsel threads and the
/// adaptive lineage codec.
smoke::CaptureOptions Capture(smoke::CaptureMode mode);

const char* ModeName(smoke::CaptureMode mode);  // baseline / inject / defer

/// Counts one engine call into `rep` (attempted, failed) and returns
/// whether it succeeded; the first few failures are printed as lines.
bool Count(Report* rep, const smoke::Status& st, const std::string& what);

/// Per-layer self time per traced operation, from `spans`, into `rep` as
/// `<layer>.self_ms` for every layer of the repository (and "bench", the
/// benchmark's own root spans).
void ReportLayerSelfTimes(const std::vector<Span>& spans, size_t traced_ops,
                          Report* rep);

/// Median duration of the spans called `name` (NaN when none).
double MedianSpanMs(const std::vector<Span>& spans, const std::string& name);

/// Number of set-ups a run makes (each from scratch, the last one kept);
/// setup_s is their median.
constexpr int kSetups = 3;

/// Runs `set_up` on a fresh `Setup` kSetups times, destroying the previous
/// one first, and keeps the last in `*setup`. Returns the seconds each
/// set-up took; empty after a failed one, which is recorded in `rep`.
template <typename Setup>
std::vector<double> RepeatSetUp(
    const std::function<smoke::Status(Setup*)>& set_up,
    std::unique_ptr<Setup>* setup, Report* rep) {
  std::vector<double> seconds;
  for (int k = 0; k < kSetups; ++k) {
    setup->reset();
    *setup = std::make_unique<Setup>();
    const Clock::time_point t0 = Clock::now();
    const smoke::Status st = set_up(setup->get());
    if (!st.ok()) {
      rep->Check(false, "set-up failed: " + st.ToString());
      return {};
    }
    seconds.push_back(MsBetween(t0, Clock::now()) / 1000.0);
  }
  return seconds;
}

/// A workload: one run (set-ups, timed window, output checks) into a report
/// carrying its end-to-end metrics, plus its per-layer metrics when traced.
struct Workload {
  const char* name;
  Report (*run)(const Args& args);
};

/// Sets setup_s, the median of `seconds`, and prints every set-up's time.
void ReportSetUp(const std::vector<double>& seconds, Report* rep);

/// The benchmark's workloads; nullptr when `name` is not one of them.
const Workload* FindWorkload(const std::string& name);

Report RunTpchCapture(const Args& args);
Report RunDrilldownTrace(const Args& args);
Report RunBrushServe(const Args& args);

/// Checks of the benchmark's own helpers; returns the number of failures.
int RunSelfTest();

}  // namespace smokebench

#endif  // SMOKE_PERFBENCH_WORKLOADS_H_
