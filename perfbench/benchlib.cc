#include "benchlib.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <mutex>
#include <random>
#include <thread>

namespace smokebench {

// ---------------------------------------------------------------- time

namespace {
Clock::time_point Epoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}
}  // namespace

double NowMs() { return MsBetween(Epoch(), Clock::now()); }

Clock::time_point TimeAt(double ms) {
  return Epoch() + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(ms));
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------- stats

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
  if (rank < 1) rank = 1;
  if (rank > samples.size()) rank = samples.size();
  return samples[rank - 1];
}

double Median(const std::vector<double>& samples) {
  return Percentile(samples, 50);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

bool PercentileResolved(size_t n, double p) {
  // Samples strictly beyond the nearest-rank position.
  const double beyond =
      static_cast<double>(n) -
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return n > 0 && beyond >= 10.0;
}

double HighestResolvedPercentile(size_t n) {
  for (double p : {99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0}) {
    if (PercentileResolved(n, p)) return p;
  }
  return 0;
}

LatencySummary Summarize(const std::vector<double>& samples) {
  LatencySummary s;
  s.n = samples.size();
  if (s.n == 0) return s;
  s.p50 = Percentile(samples, 50);
  s.p99_resolved = PercentileResolved(s.n, 99);
  if (s.p99_resolved) s.p99 = Percentile(samples, 99);
  s.tail_pct = HighestResolvedPercentile(s.n);
  if (s.tail_pct > 0) s.tail = Percentile(samples, s.tail_pct);
  return s;
}

// ------------------------------------------------------- open-loop load

OpenLoopStats AccountOpenLoop(std::vector<OpenLoopRecord> records,
                              size_t scheduled) {
  OpenLoopStats s;
  std::sort(records.begin(), records.end(),
            [](const OpenLoopRecord& a, const OpenLoopRecord& b) {
              return a.due_ms < b.due_ms;
            });
  s.sent = records.size();
  s.unsent = scheduled > records.size() ? scheduled - records.size() : 0;
  for (const OpenLoopRecord& r : records) {
    const double queue = std::max(0.0, r.start_ms - r.due_ms);
    s.queue_ms.push_back(queue);
    if (r.sender_idle) s.late_ms.push_back(queue);
    if (r.ok) {
      s.latency_ms.push_back(r.end_ms - r.due_ms);
    } else {
      s.failed++;
    }
  }
  const size_t q = s.queue_ms.size() / 4;
  if (q > 0) {
    double first = 0, last = 0;
    for (size_t i = 0; i < q; ++i) {
      first += s.queue_ms[i];
      last += s.queue_ms[s.queue_ms.size() - 1 - i];
    }
    s.backlog_growth_ms = (last - first) / static_cast<double>(q);
  }
  return s;
}

bool KeptUp(const OpenLoopStats& s, double slack_ms) {
  return s.unsent == 0 && s.backlog_growth_ms <= slack_ms;
}

bool MetLimit(const OpenLoopStats& s, size_t scheduled, double limit_ms,
              double slack_ms) {
  const double p = HighestResolvedPercentile(scheduled);
  if (p == 0) return false;
  size_t over = s.failed + s.unsent;
  for (double ms : s.latency_ms) over += ms > limit_ms ? 1 : 0;
  // Percentile p stays within the limit when at most (100 - p) % of the
  // scheduled requests exceed it.
  const size_t allowed = static_cast<size_t>(
      std::floor((100.0 - p) / 100.0 * static_cast<double>(scheduled) + 1e-9));
  return over <= allowed && KeptUp(s, slack_ms);
}

// --------------------------------------------------------- calibration

Calibration::Calibration(size_t rows, size_t threads)
    : parts_(std::max<size_t>(1, threads)) {
  std::mt19937_64 rng(0xca11b7a7e0ULL);
  const size_t n = std::max<size_t>(64, rows / parts_.size());
  const int64_t distinct = static_cast<int64_t>(n / 4);
  size_t slots = 1;
  while (slots < 2 * static_cast<size_t>(distinct)) slots <<= 1;
  for (Part& p : parts_) {
    std::uniform_int_distribution<int64_t> key(0, distinct - 1);
    std::uniform_real_distribution<double> value(0.0, 100.0);
    std::uniform_int_distribution<uint32_t> pos(
        0, static_cast<uint32_t>(n - 1));
    for (size_t i = 0; i < n; ++i) {
      p.keys.push_back(key(rng));
      p.values.push_back(value(rng));
    }
    for (size_t i = 0; i < n / 4; ++i) p.gather.push_back(pos(rng));
    p.slot_keys.resize(slots);
    p.slot_sums.resize(slots);
  }
}

double Calibration::RunPart(Part* p) {
  // Hash aggregation of 7/8 of the rows by key (open addressing, linear
  // probing), then a random gather of a quarter of them.
  std::fill(p->slot_keys.begin(), p->slot_keys.end(), -1);
  std::fill(p->slot_sums.begin(), p->slot_sums.end(), 0.0);
  const size_t mask = p->slot_keys.size() - 1;
  for (size_t i = 0; i < p->keys.size(); ++i) {
    const int64_t k = p->keys[i];
    if ((k & 7) == 0) continue;
    size_t h = static_cast<size_t>((static_cast<uint64_t>(k) *
                                    0x9e3779b97f4a7c15ULL) >> 20) & mask;
    while (p->slot_keys[h] != k && p->slot_keys[h] != -1) h = (h + 1) & mask;
    p->slot_keys[h] = k;
    p->slot_sums[h] += p->values[i];
  }
  double sum = 0;
  for (uint32_t i : p->gather) sum += p->values[i];
  return sum + p->slot_sums[static_cast<size_t>(sum) & mask];
}

double Calibration::RunMs() {
  const Clock::time_point t0 = Clock::now();
  std::vector<double> out(parts_.size());
  std::vector<std::thread> helpers;
  for (size_t i = 1; i < parts_.size(); ++i) {
    helpers.emplace_back([this, i, &out] { out[i] = RunPart(&parts_[i]); });
  }
  out[0] = RunPart(&parts_[0]);
  for (std::thread& t : helpers) t.join();
  const double ms = MsBetween(t0, Clock::now());
  for (double v : out) sink_ += v;
  return ms;
}

double Calibration::MedianMs(int runs) {
  std::vector<double> ms;
  for (int i = 0; i < runs; ++i) ms.push_back(RunMs());
  return Median(ms);
}

// ------------------------------------------------------------- tracing

std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const Span& p = spans[it->second];
    const double a = std::max(s.start_ms, p.start_ms);
    const double b = std::min(s.end_ms, p.end_ms);
    if (b > a) kids[it->second].emplace_back(a, b);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    self[i] = (spans[i].end_ms - spans[i].start_ms) - covered;
  }
  return self;
}

namespace {

struct ThreadBuffer {
  uint32_t thread = 0;
  std::vector<Span> spans;
};

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_span{1};
std::atomic<uint64_t> g_next_op{1};
std::atomic<uint32_t> g_next_thread{1};
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>>& Buffers() {
  static std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  return buffers;
}

thread_local ThreadBuffer* tl_buffer = nullptr;
thread_local bool tl_traced = false;
thread_local uint64_t tl_op = 0;
thread_local std::vector<uint64_t> tl_stack;

ThreadBuffer* LocalBuffer() {
  if (tl_buffer == nullptr) {
    auto buf = std::make_unique<ThreadBuffer>();
    buf->thread = g_next_thread.fetch_add(1);
    tl_buffer = buf.get();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    Buffers().push_back(std::move(buf));
  }
  return tl_buffer;
}

}  // namespace

void Tracer::Enable() { g_enabled.store(true); }

Tracer::Scope::Scope(std::string name) {
  if (!tl_traced || !g_enabled.load(std::memory_order_relaxed)) return;
  ThreadBuffer* buf = LocalBuffer();
  Span s;
  s.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  s.parent = tl_stack.empty() ? 0 : tl_stack.back();
  s.op_id = tl_op;
  s.thread = buf->thread;
  s.name = std::move(name);
  s.start_ms = NowMs();
  tl_stack.push_back(s.id);
  index_ = buf->spans.size();
  buf->spans.push_back(std::move(s));
  active_ = true;
}

Tracer::Scope::~Scope() {
  if (!active_) return;
  tl_buffer->spans[index_].end_ms = NowMs();
  tl_stack.pop_back();
}

Tracer::TracedOp::TracedOp(bool traced)
    : prev_traced_(tl_traced), prev_op_(tl_op) {
  tl_traced = traced;
  tl_op = g_next_op.fetch_add(1, std::memory_order_relaxed);
}

Tracer::TracedOp::~TracedOp() {
  tl_traced = prev_traced_;
  tl_op = prev_op_;
}

std::vector<Span> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<Span> all;
  for (const auto& buf : Buffers()) {
    all.insert(all.end(), buf->spans.begin(), buf->spans.end());
  }
  return all;
}

bool Tracer::Write(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op_id << ",\"thread\":" << s.thread
        << ",\"name\":\"" << s.name << "\",\"start_ms\":" << Num(s.start_ms)
        << ",\"end_ms\":" << Num(s.end_ms) << "}\n";
  }
  return static_cast<bool>(out);
}

// -------------------------------------------------------------- report

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  if (check_failures.size() < 20) check_failures.push_back(what);
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics[name] = MetricValue{value, unit};
}

void Report::PrintLatency(const std::string& name,
                          const std::vector<double>& ms) {
  const LatencySummary s = Summarize(ms);
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s_p50 = %.4f ms (n=%zu)", name.c_str(),
                s.p50, s.n);
  Line(buf);
  if (s.p99_resolved) {
    std::snprintf(buf, sizeof(buf), "%s_p99 = %.4f ms (n=%zu)", name.c_str(),
                  s.p99, s.n);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "%s_p99 = unresolved (n=%zu; needs >= 1000 samples)",
                  name.c_str(), s.n);
  }
  Line(buf);
  if (s.tail_pct > 0) {
    std::snprintf(buf, sizeof(buf),
                  "%s highest resolved percentile p%g = %.4f ms (n=%zu)",
                  name.c_str(), s.tail_pct, s.tail, s.n);
    Line(buf);
  }
}

}  // namespace smokebench
