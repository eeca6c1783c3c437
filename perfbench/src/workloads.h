// The benchmark workloads and the metrics they report.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Toy-sized inputs (every check still runs); for the smoke mode.
  bool toy = false;
  /// Scratch root for durability/publish directories (removed after use)
  /// and trace files.
  std::string work_dir = ".perfbench_run";
  /// Steady-clock time (NowNs) at which the process started; setup_s is
  /// measured from here to the first answered read.
  int64_t process_start_ns = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Human-readable lines: check failures, context figures.
  std::vector<std::string> notes;
};

/// Names accepted by RunWorkload, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload end to end. Returns false (with a note) for an
/// unknown workload or a set-up failure.
bool RunWorkload(const RunOptions& options, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
