// In-memory spans recorded around the benchmark's calls into each layer.
// A span has a name, start, end, parent and request id; the list is kept
// in memory and written out once the run ends. A span's self time is its
// duration minus the time its child spans cover.
//
// Timing and tracing share one clock: every Scope measures its duration
// (the untraced run needs the same numbers for its end-to-end metrics) and
// only appends a span when tracing is on.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  ///< index into the span list, -1 for a root
  uint64_t request;
};

/// Single-threaded: spans come from the benchmark's driver thread only.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_request(uint64_t request) { request_ = request; }

  /// RAII span; Seconds()/Ns() read the duration after End().
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope() { End(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void End();
    int64_t Ns() const { return end_ns_ - start_ns_; }
    double Ms() const { return static_cast<double>(Ns()) / 1e6; }
    double Seconds() const { return static_cast<double>(Ns()) / 1e9; }

   private:
    Tracer* tracer_;
    const char* name_;
    int64_t start_ns_;
    int64_t end_ns_ = -1;
    int32_t index_ = -1;
    int32_t saved_parent_ = -1;
  };

  /// Mean duration (ms) of the spans named `name`; 0 when there are none.
  double MeanMs(const std::string& name) const;
  /// Per-name totals of duration and self time, in ms.
  struct Totals {
    uint64_t spans = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Totals> Summarize() const;
  size_t size() const { return spans_.size(); }

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

  /// Cost of recording one span on this host, in ns (timed in-process).
  static double CalibrateSpanNs();

 private:
  bool enabled_;
  uint64_t request_ = 0;
  int32_t current_ = -1;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
