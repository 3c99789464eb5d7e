// smokebench: the repository benchmark's binary.
//
//   smokebench --workload <tpch_capture|drilldown_trace|brush_serve>
//              --seed N --seconds S --trace 0|1 [--spans PATH]
//              [--commit ID] [--source-digest HEX]
//   smokebench --selftest
//
// A run prints the run record, its figures and output-check verdicts as
// free-form lines, then every metric it measured as
//   metric <name> = <value> <unit>
// (the end-to-end metrics always, the per-layer ones with --trace 1) and
// last
//   result correct=<0|1> attempted=<n> failed=<n>
// run.py turns these into the JSON result line BENCHMARK.json describes.
// Exits 1 when an output check fails.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "harness.h"  // bench/harness.h: the figure benches' allocator setup
#include "workloads.h"

#ifndef SMOKEBENCH_BUILD_TYPE
#define SMOKEBENCH_BUILD_TYPE "unknown"
#endif

namespace smokebench {
namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <tpch_capture|drilldown_trace|"
               "brush_serve> --seed N --seconds S --trace 0|1 "
               "[--spans PATH] [--commit ID] [--source-digest HEX]\n"
               "       %s --selftest\n",
               argv0, argv0);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  std::string commit = "unknown", digest = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--selftest") {
      const int failures = RunSelfTest();
      std::printf("selftest: %d failure(s)\n", failures);
      return failures == 0 ? 0 : 1;
    } else if (a == "--workload" && has_value) {
      args.workload = argv[++i];
      have_workload = true;
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      args.trace = std::string(argv[++i]) == "1";
    } else if (a == "--spans" && has_value) {
      args.span_path = argv[++i];
    } else if (a == "--commit" && has_value) {
      commit = argv[++i];
    } else if (a == "--source-digest" && has_value) {
      digest = argv[++i];
    } else {
      return Usage(argv[0]);
    }
  }
  const Workload* w = FindWorkload(args.workload);
  if (!have_workload || w == nullptr || args.seconds <= 0) {
    return Usage(argv[0]);
  }

  smoke::bench::StabilizeAllocator();
  if (args.trace) Tracer::Enable();
  Report rep = w->run(args);
  if (args.trace && !args.span_path.empty()) {
    const std::vector<Span> spans = Tracer::Collect();
    rep.Check(Tracer::Write(spans, args.span_path),
              "cannot write spans to " + args.span_path);
    rep.Line("spans: " + std::to_string(spans.size()) + " written to " +
             args.span_path);
  }
  rep.Check(rep.attempted > 0, "no operation was attempted");

  std::printf(
      "record: workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
      "build_type=%s commit=%s source_sha1=%s\n",
      w->name, static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      SMOKEBENCH_BUILD_TYPE, commit.c_str(), digest.c_str());
  for (const std::string& line : rep.lines) std::printf("%s\n", line.c_str());
  for (const std::string& f : rep.check_failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("failed_frac = %s ratio (%llu of %llu operations)\n",
              Num(static_cast<double>(rep.failed) /
                  static_cast<double>(std::max<uint64_t>(1, rep.attempted)))
                  .c_str(),
              static_cast<unsigned long long>(rep.failed),
              static_cast<unsigned long long>(rep.attempted));
  for (const auto& [name, m] : rep.metrics) {
    std::printf("metric %s = %s %s\n", name.c_str(), Num(m.value).c_str(),
                m.unit.c_str());
  }
  std::printf("result correct=%d attempted=%llu failed=%llu\n",
              rep.correct ? 1 : 0,
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  std::fflush(stdout);
  return rep.correct ? 0 : 1;
}

}  // namespace
}  // namespace smokebench

int main(int argc, char** argv) { return smokebench::Main(argc, argv); }
