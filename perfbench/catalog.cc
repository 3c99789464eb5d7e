// The workload table and the helpers every workload shares. The metric
// catalogue lives in ../BENCHMARK.json (names, units) and METRICS.json
// (definitions, layer, call, target); run.py checks the two agree and that
// every run reports what they list.
#include <map>

#include "workloads.h"

namespace smokebench {

namespace {
const char* const kLayers[] = {"workloads", "optimizer", "engine", "plan",
                               "lineage",   "core",      "shard",  "query",
                               "apps",      "serve",     "refresh", "bench"};
}  // namespace

const Workload* FindWorkload(const std::string& name) {
  static const Workload kWorkloads[] = {
      {"tpch_capture", RunTpchCapture},
      {"drilldown_trace", RunDrilldownTrace},
      {"brush_serve", RunBrushServe},
  };
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

smoke::CaptureOptions Capture(smoke::CaptureMode mode) {
  smoke::CaptureOptions o = smoke::CaptureOptions::Mode(mode);
  o.num_threads = 2;
  o.lineage_codec = smoke::LineageCodec::kAdaptive;
  return o;
}

const char* ModeName(smoke::CaptureMode mode) {
  switch (mode) {
    case smoke::CaptureMode::kNone: return "baseline";
    case smoke::CaptureMode::kInject: return "inject";
    case smoke::CaptureMode::kDefer: return "defer";
    default: return "other";
  }
}

bool Count(Report* rep, const smoke::Status& st, const std::string& what) {
  rep->attempted++;
  if (st.ok()) return true;
  if (rep->failed++ < 5) rep->Line("FAILED " + what + ": " + st.ToString());
  return false;
}

void ReportSetUp(const std::vector<double>& seconds, Report* rep) {
  std::string each;
  for (double s : seconds) each += (each.empty() ? "" : ", ") + Num(s);
  rep->Set("setup_s", Median(seconds), "s");
  rep->Line("setup_s = " + Num(Median(seconds)) + " s (median of " +
            std::to_string(seconds.size()) + " set-ups: " + each + ")");
}

void ReportLayerSelfTimes(const std::vector<Span>& spans, size_t traced_ops,
                          Report* rep) {
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, double> total;
  for (size_t i = 0; i < spans.size(); ++i) {
    total[LayerOf(spans[i].name)] += self[i];
  }
  const double ops = traced_ops > 0 ? static_cast<double>(traced_ops) : 1.0;
  for (const char* layer : kLayers) {
    rep->Set(std::string(layer) + ".self_ms", total[layer] / ops, "ms");
  }
}

double MedianSpanMs(const std::vector<Span>& spans, const std::string& name) {
  std::vector<double> d;
  for (const Span& s : spans) {
    if (s.name == name) d.push_back(s.end_ms - s.start_ms);
  }
  return Median(d);
}

}  // namespace smokebench
