#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace deepseq::obs {

/// Global tracing switch. Disabled (the default) the request path pays one
/// relaxed atomic load per would-be span — no clock reads, no recording.
/// api::Session flips it on when SessionConfig::trace_path / DEEPSEQ_TRACE
/// is set and restores the prior value on destruction.
bool tracing_enabled();
void set_tracing_enabled(bool on);

/// Process-wide monotonic task id (starts at 1).
std::uint64_t next_task_id();

/// Nanoseconds since the process trace origin (first use of the trace
/// clock). Chrome trace timestamps are derived from this.
std::uint64_t trace_now_ns();
std::uint64_t to_trace_ns(std::chrono::steady_clock::time_point tp);

/// The per-task identity a trace span carries: assigned in
/// api::Session::run_sync and propagated by value through the engine's
/// request/result structs so every stage of one request — cache resolve,
/// embed, head compute — records spans attributable to the same task.
/// `kind` points at a static task name (api::task_name); a null kind marks
/// an untraced request (engine-level callers that bypass the Session).
struct TaskContext {
  std::uint64_t task_id = 0;
  const char* kind = nullptr;
  std::uint64_t backend_fingerprint = 0;
};

/// One fixed-size trace record. Name/category/argument-name pointers must
/// be static strings (they are stored, not copied). ph 'X' is a complete
/// span [ts_ns, ts_ns + dur_ns); ph 'i' an instant event.
struct TraceEvent {
  const char* name = nullptr;
  const char* cat = "task";
  char ph = 'X';
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;  // filled by TraceSink::record
  TaskContext ctx;
  std::uint64_t structure = 0;  // structural-hash digest; 0 = none
  // Up to eight numeric args (null name = unused slot).
  static constexpr int kMaxArgs = 8;
  const char* arg_name[kMaxArgs] = {};
  std::int64_t arg[kMaxArgs] = {};
};

/// Bounded MPMC ring-buffer sink: record() claims a slot by ticket
/// (one relaxed fetch_add) and writes it under a per-slot spinlock, so
/// concurrent writers on distinct slots never touch shared state and the
/// ring overwrites the oldest events once full (the tail of a long run is
/// what a post-mortem trace wants). recorded()/dropped() are exact.
class TraceSink {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 15;

  explicit TraceSink(std::size_t capacity = kDefaultCapacity);

  void record(TraceEvent e);

  /// Copy out the retained events, oldest first.
  std::vector<TraceEvent> events() const;

  std::uint64_t recorded() const { return next_.load(std::memory_order_relaxed); }
  std::uint64_t dropped() const {
    const std::uint64_t n = recorded();
    return n > slots_.size() ? n - slots_.size() : 0;
  }
  std::size_t capacity() const { return slots_.size(); }

  /// Drop every retained event (counters restart too).
  void clear();

  /// The process-wide sink every instrumentation point records into
  /// (intentionally leaked, like Registry::global()).
  static TraceSink& global();

 private:
  struct Slot {
    mutable std::atomic<bool> busy{false};
    std::uint64_t ticket = kEmpty;
    TraceEvent e;
  };
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> next_{0};
};

/// Record into the global sink iff tracing is enabled. Callers that need
/// timestamps should gate their clock reads on tracing_enabled() first.
inline void record_event(const TraceEvent& e) {
  if (tracing_enabled()) TraceSink::global().record(e);
}

/// Serialize events as a Chrome trace-event / Perfetto-compatible JSON
/// document ({"traceEvents":[...],"displayTimeUnit":"ms"}; ts/dur in
/// microseconds).
std::string chrome_trace_json(const std::vector<TraceEvent>& events);

/// Dump the global sink's retained events to `path`. Throws Error naming
/// the path when the file cannot be written.
void write_chrome_trace(const std::string& path);

/// The DEEPSEQ_TRACE knob: empty when unset; otherwise the dump path.
/// Strict like DEEPSEQ_ARTIFACT — validate_trace_path() fails fast (Error
/// naming the variable and path) when the file cannot be created, so a
/// typo'd path surfaces at Session construction, not as a silently missing
/// trace after the run.
std::string trace_path_from_env();
void validate_trace_path(const std::string& path);

}  // namespace deepseq::obs
