#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

Tracer::Scope::Scope(Tracer* tracer, const char* name)
    : tracer_(tracer), name_(name), start_ns_(NowNs()) {
  if (tracer_ != nullptr && tracer_->enabled_) {
    index_ = static_cast<int32_t>(tracer_->spans_.size());
    tracer_->spans_.push_back(
        Span{name_, start_ns_, start_ns_, tracer_->current_, tracer_->request_});
    saved_parent_ = tracer_->current_;
    tracer_->current_ = index_;
  }
}

void Tracer::Scope::End() {
  if (end_ns_ >= 0) return;
  end_ns_ = NowNs();
  if (index_ >= 0) {
    tracer_->spans_[index_].end_ns = end_ns_;
    tracer_->current_ = saved_parent_;
  }
}

double Tracer::MeanMs(const std::string& name) const {
  double total = 0;
  size_t n = 0;
  for (const Span& s : spans_) {
    if (name == s.name) {
      total += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      ++n;
    }
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

std::map<std::string, Tracer::Totals> Tracer::Summarize() const {
  // Children of one parent never overlap (one thread, strictly nested), so
  // the covered time is the plain sum of child durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t d = spans_[i].end_ns - spans_[i].start_ns;
    Totals& t = out[spans_[i].name];
    ++t.spans;
    t.total_ms += static_cast<double>(d) / 1e6;
    t.self_ms += static_cast<double>(d - child_ns[i]) / 1e6;
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"request\":%llu}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

double Tracer::CalibrateSpanNs() {
  constexpr int kSpans = 200000;
  double best = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    Tracer on(true);
    Tracer off(false);
    const int64_t t0 = NowNs();
    for (int i = 0; i < kSpans; ++i) Scope s(&on, "calibrate");
    const int64_t t1 = NowNs();
    for (int i = 0; i < kSpans; ++i) Scope s(&off, "calibrate");
    const int64_t t2 = NowNs();
    best = std::min(best, static_cast<double>((t1 - t0) - (t2 - t1)) / kSpans);
  }
  return std::max(best, 0.0);
}

}  // namespace perfbench
