// Helpers shared by the benchmark's workloads: latency statistics with the
// percentile-resolution rule, open-loop schedule accounting, the
// calibration kernel every gated time is divided by, the span recorder of
// the traced run, and the run report printed at exit.
//
// Everything here is the benchmark's own machinery; it calls nothing in the
// engine. selftest.cc checks the percentile rule, the open-loop accounting
// and span self time, and run.py runs those checks before every run.
#ifndef SMOKE_PERFBENCH_BENCHLIB_H_
#define SMOKE_PERFBENCH_BENCHLIB_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace smokebench {

// ---------------------------------------------------------------- time

using Clock = std::chrono::steady_clock;

/// Milliseconds since the process-wide benchmark epoch (first call).
double NowMs();

double MsBetween(Clock::time_point a, Clock::time_point b);

/// The steady-clock instant `ms` milliseconds after the benchmark epoch.
Clock::time_point TimeAt(double ms);

// ---------------------------------------------------------------- stats

/// Nearest-rank percentile (p in (0, 100]) of `samples`; NaN when empty.
double Percentile(std::vector<double> samples, double p);

double Median(const std::vector<double>& samples);

/// Arithmetic mean; NaN when empty.
double Mean(const std::vector<double>& samples);

/// True when percentile `p` of `n` samples has at least ten samples beyond
/// it — the resolution rule every reported tail obeys.
bool PercentileResolved(size_t n, double p);

/// The highest of {99.9, 99.5, 99, 98, 95, 90, 75, 50} that `n` samples
/// resolve; 0 when not even the median is resolved.
double HighestResolvedPercentile(size_t n);

/// A latency series summarised for printing: median, p99 (when resolved),
/// the highest resolved percentile, and the sample count.
struct LatencySummary {
  size_t n = 0;
  double p50 = 0;
  bool p99_resolved = false;
  double p99 = 0;
  double tail_pct = 0;  ///< highest resolved percentile (0: none)
  double tail = 0;
};
LatencySummary Summarize(const std::vector<double>& samples);

// ------------------------------------------------------- open-loop load

/// One request of an open-loop schedule: when it was due, when the sender
/// actually issued it, and when it completed. All in NowMs() time.
struct OpenLoopRecord {
  double due_ms = 0;
  double start_ms = 0;
  double end_ms = 0;
  bool ok = true;
  /// The sender was idle (had slept) before this request: start − due is
  /// then the generator's own lateness, not queueing behind earlier work.
  bool sender_idle = true;
};

struct OpenLoopStats {
  size_t sent = 0;
  size_t failed = 0;
  std::vector<double> latency_ms;  ///< end − due, per successful request
  std::vector<double> queue_ms;    ///< start − due, every request
  std::vector<double> late_ms;     ///< start − due of idle-sender requests
  /// Mean queue delay over the last quarter of the schedule minus that of
  /// the first quarter: positive and large means the backlog kept growing.
  double backlog_growth_ms = 0;
  /// Requests scheduled but never sent before the phase ended.
  size_t unsent = 0;
};

/// Accounts `records` (any order) of a schedule that planned `scheduled`
/// requests. Latency is measured from the due time, so a stall also charges
/// the wait it imposed on every request queued behind it.
OpenLoopStats AccountOpenLoop(std::vector<OpenLoopRecord> records,
                              size_t scheduled);

/// True when the phase kept up: nothing unsent and the queue delay of the
/// last quarter exceeds that of the first by at most `slack_ms`.
bool KeptUp(const OpenLoopStats& s, double slack_ms);

/// True when an open-loop step of `scheduled` requests met `limit_ms` at
/// the highest percentile its sample count resolves (HighestResolvedPercentile
/// of `scheduled`; a failed or unsent request counts as over the limit) and
/// kept up within `slack_ms`. False when `scheduled` resolves no percentile.
bool MetLimit(const OpenLoopStats& s, size_t scheduled, double limit_ms,
              double slack_ms);

// --------------------------------------------------------- calibration

/// The yardstick every gated time is divided by: a fixed amount of scan,
/// hash-aggregation and random-gather work over the benchmark's own arrays,
/// the same in every run (a fixed seed, not --seed, so the yardstick does
/// not vary with the workload's inputs). It calls nothing in the engine, so
/// no change to the engine moves it; timed right beside the engine's work
/// it moves with the machine (clock rate, memory bandwidth, neighbours on a
/// shared host), and the ratio cancels that drift.
class Calibration {
 public:
  /// `rows` input rows, split evenly across `threads` threads.
  Calibration(size_t rows, size_t threads);

  /// Runs the kernel once; returns its wall time in ms.
  double RunMs();

  /// Median wall time of `runs` kernel runs, in ms.
  double MedianMs(int runs);

 private:
  struct Part {
    std::vector<int64_t> keys;
    std::vector<double> values;
    std::vector<uint32_t> gather;  ///< random positions into values
    std::vector<int64_t> slot_keys;
    std::vector<double> slot_sums;
  };
  static double RunPart(Part* p);

  std::vector<Part> parts_;
  double sink_ = 0;  ///< keeps the kernel's result observable
};

// ------------------------------------------------------------- tracing

/// One recorded span: a call into a layer's public function (or one of the
/// benchmark's own root spans, layer "bench"). The layer is the name's
/// prefix up to the first '.'.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0: root
  uint64_t op_id = 0;   ///< the request (root operation) the span serves
  uint32_t thread = 0;
  std::string name;
  double start_ms = 0;
  double end_ms = 0;
};

std::string LayerOf(const std::string& span_name);

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once).
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// Process-wide span recorder. Off unless Enable() ran; spans are recorded
/// only on threads whose current operation is traced (TracedOp), so one
/// traced run can interleave traced and untraced operations and compare
/// them. Spans stay in memory until Collect()/Write() at exit.
class Tracer {
 public:
  static void Enable();

  /// RAII span around one call. Records nothing when the calling thread is
  /// not inside a traced operation.
  class Scope {
   public:
    explicit Scope(const char* name) : Scope(std::string(name)) {}
    explicit Scope(std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    bool active_ = false;
    size_t index_ = 0;
  };

  /// Marks the calling thread's current operation as traced (or not) and
  /// gives it a fresh op id; restores the previous state on destruction.
  class TracedOp {
   public:
    explicit TracedOp(bool traced);
    ~TracedOp();
    TracedOp(const TracedOp&) = delete;
    TracedOp& operator=(const TracedOp&) = delete;

   private:
    bool prev_traced_;
    uint64_t prev_op_;
  };

  /// All spans recorded so far, from every thread. Call after the
  /// recording threads have joined.
  static std::vector<Span> Collect();

  /// Writes `spans` as JSON lines to `path`; false on I/O failure.
  static bool Write(const std::vector<Span>& spans, const std::string& path);
};

// -------------------------------------------------------------- report

struct MetricValue {
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main: the output-check verdict, operation
/// counts, metrics (the end-to-end ones always, the per-layer ones in a
/// traced run), and free-form lines printed before them.
struct Report {
  bool correct = true;
  std::vector<std::string> check_failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, MetricValue> metrics;
  std::vector<std::string> lines;

  void Check(bool ok, const std::string& what);
  void Set(const std::string& name, double value, const std::string& unit);
  void Line(const std::string& line) { lines.push_back(line); }
  /// Prints a latency series as `<name>_p50`, `<name>_p99` (or
  /// "unresolved") and its highest resolved percentile, with the count.
  void PrintLatency(const std::string& name, const std::vector<double>& ms);
};

/// Formats `v` with every significant digit (round-trips through JSON).
std::string Num(double v);

/// Command line of one run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string span_path;  ///< where the traced run writes its spans
};

}  // namespace smokebench

#endif  // SMOKE_PERFBENCH_BENCHLIB_H_
