#pragma once

// Bench-side span recorder and per-layer table for the e2e ledger's traced
// run. Spans are written into a buffer sized up front, so recording on the
// measured path never allocates or locks: one relaxed fetch_add claims a
// slot and only the claiming thread writes it. Readers (self times, the
// table, the Chrome-trace export) run after every recording thread has
// been joined.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace e2e {

/// One timed interval. `name` must be a static string. Times are
/// obs::trace_now_ns()-based nanoseconds, so bench spans share the clock
/// origin of the library's own trace dumps.
struct Span {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;   // index of the enclosing span; -1 = root
  std::uint64_t request = 0;  // shared by every span of one request
  std::uint32_t tid = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity) : spans_(capacity) {}

  /// Store `s`; returns its index (the parent handle for its children), or
  /// -1 when the buffer is full — counted by dropped(), never reallocated.
  std::int64_t record(const Span& s) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= spans_.size()) return -1;
    spans_[i] = s;
    return static_cast<std::int64_t>(i);
  }

  std::size_t size() const {
    return std::min(next_.load(std::memory_order_relaxed), spans_.size());
  }
  std::size_t dropped() const {
    const std::size_t n = next_.load(std::memory_order_relaxed);
    return n > spans_.size() ? n - spans_.size() : 0;
  }
  const Span& operator[](std::size_t i) const { return spans_[i]; }

  /// Self time of every span: its duration minus the time its direct
  /// children cover. The bench lays children of one parent out without
  /// overlap, so covered time is the sum of child durations.
  std::vector<double> self_ns() const {
    const std::size_t n = size();
    std::vector<double> self(n);
    for (std::size_t i = 0; i < n; ++i)
      self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t p = spans_[i].parent;
      if (p >= 0 && static_cast<std::size_t>(p) < n)
        self[static_cast<std::size_t>(p)] -=
            static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    }
    for (double& s : self) s = std::max(0.0, s);
    return self;
  }

  /// Chrome trace-event JSON (the library's obs serializer): one complete
  /// event per span, with the request id as "task" and the parent index as
  /// an argument.
  std::string chrome_json() const {
    std::vector<deepseq::obs::TraceEvent> events(size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      const Span& s = spans_[i];
      deepseq::obs::TraceEvent& e = events[i];
      e.name = s.name;
      e.cat = "e2e";
      e.ts_ns = s.start_ns;
      e.dur_ns = s.end_ns - s.start_ns;
      e.tid = s.tid;
      e.ctx.task_id = s.request;
      e.arg_name[0] = "parent";
      e.arg[0] = s.parent;
    }
    return deepseq::obs::chrome_trace_json(events);
  }

 private:
  std::vector<Span> spans_;
  std::atomic<std::size_t> next_{0};
};

/// The q-quantile of `v` (linear interpolation between order statistics);
/// 0 when empty. Takes a copy: callers keep their sample order.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Per span name: count, p50 duration, p50 and total self time, and the
/// share of all root-span time the name's self time accounts for. Roots are
/// the end-to-end unit (a client request, a training epoch), so the shares
/// of one run add up to 1.
inline void print_layer_table(const SpanRecorder& spans) {
  struct Acc {
    std::vector<double> dur_ms, self_ms;
    double self_total_ms = 0.0;
  };
  const std::vector<double> self = spans.self_ns();
  std::map<std::string, Acc> by_name;
  double root_ms = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    Acc& a = by_name[s.name];
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    a.dur_ms.push_back(dur);
    a.self_ms.push_back(self[i] * 1e-6);
    a.self_total_ms += self[i] * 1e-6;
    if (s.parent < 0) root_ms += dur;
  }
  std::printf("%-22s %8s %11s %11s %13s %7s\n", "span", "count", "p50 ms",
              "self p50", "self total ms", "share");
  for (const auto& [name, a] : by_name)
    std::printf("%-22s %8zu %11.4f %11.4f %13.1f %6.1f%%\n", name.c_str(),
                a.dur_ms.size(), quantile(a.dur_ms, 0.5),
                quantile(a.self_ms, 0.5), a.self_total_ms,
                root_ms > 0 ? 100.0 * a.self_total_ms / root_ms : 0.0);
  if (spans.dropped() > 0)
    std::printf("(%zu spans dropped: buffer full)\n", spans.dropped());
}

}  // namespace e2e
