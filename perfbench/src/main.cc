// dspc_perfbench: the repository's benchmark program.
//
//   dspc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//       Runs one workload. Human-readable lines first; the last line of
//       standard output is one JSON object with the keys correct,
//       attempted, failed and metrics (end-to-end metrics with --trace 0,
//       per-layer metrics with --trace 1).
//   dspc_perfbench --smoke
//       Oracle self-test, then every workload at toy size with every
//       check, traced and untraced, in a few seconds.
//
// Exit code 0 when every check passed, 1 when an answer or property check
// failed, 2 on a usage or set-up error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "oracle.h"
#include "trace.h"
#include "workloads.h"

namespace {

// Initialized before main() runs: the start of the process for setup_s.
const int64_t kProcessStartNs = perfbench::NowNs();

using perfbench::Metric;
using perfbench::RunOptions;
using perfbench::RunResult;

void PrintJson(const RunResult& r, bool trace) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  const auto& metrics = trace ? r.per_layer : r.end_to_end;
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void PrintHuman(const RunOptions& o, const RunResult& r) {
  std::printf("# workload %s seed %llu seconds %g trace %d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
  for (const std::string& note : r.notes) std::printf("# %s\n", note.c_str());
  for (const auto* list : {&r.end_to_end, &r.per_layer}) {
    for (const Metric& m : *list) {
      std::printf("%-40s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::printf("# attempted %llu failed %llu correct %s\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), r.correct ? "yes" : "NO");
}

int Smoke(const std::string& work_dir) {
  const std::string err = perfbench::SelfTest();
  if (!err.empty()) {
    std::printf("oracle self-test FAILED: %s\n", err.c_str());
    return 1;
  }
  std::printf("oracle self-test ok\n");
  // Every workload must report the same metric names: every end-to-end
  // metric is read from every workload, every per-layer metric from every
  // traced run.
  bool ok = true;
  std::vector<std::string> names[2];
  for (const std::string& name : perfbench::WorkloadNames()) {
    for (const bool trace : {false, true}) {
      RunOptions o{.workload = name, .seed = 7, .seconds = 1.0, .trace = trace,
                   .toy = true, .work_dir = work_dir,
                   .process_start_ns = perfbench::NowNs()};
      RunResult r;
      const bool ran = perfbench::RunWorkload(o, &r);
      PrintHuman(o, r);
      std::vector<std::string> got;
      for (const Metric& m : trace ? r.per_layer : r.end_to_end) got.push_back(m.name);
      if (names[trace].empty()) names[trace] = got;
      if (!ran || !r.correct || r.failed != 0 || got != names[trace]) {
        std::printf("smoke %s trace %d FAILED (ran %d, %zu metrics)\n", name.c_str(),
                    trace ? 1 : 0, ran ? 1 : 0, got.size());
        ok = false;
      }
    }
  }
  std::printf("smoke %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions o;
  o.process_start_ns = kProcessStartNs;
  bool smoke = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--smoke") {
      smoke = true;
    } else if (v == nullptr) {
      std::fprintf(stderr, "missing value for %s\n", a.c_str());
      return 2;
    } else if (a == "--workload") {
      o.workload = v, have_workload = true, ++i;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10), ++i;
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, nullptr), ++i;
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "0") != 0, ++i;
    } else if (a == "--work-dir") {
      o.work_dir = v, ++i;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  if (smoke) return Smoke(o.work_dir);
  if (!have_workload || o.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: dspc_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> | --smoke\n");
    return 2;
  }
  // The oracle self-test runs after the workload so that setup_s, timed
  // from the start of the process, holds only the program's set-up.
  RunResult r;
  if (!perfbench::RunWorkload(o, &r)) {
    for (const std::string& note : r.notes) std::fprintf(stderr, "%s\n", note.c_str());
    return 2;
  }
  const std::string err = perfbench::SelfTest();
  if (!err.empty()) {
    std::fprintf(stderr, "oracle self-test failed: %s\n", err.c_str());
    return 2;
  }
  PrintHuman(o, r);
  PrintJson(r, o.trace);
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
