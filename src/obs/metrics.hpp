#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace deepseq::obs {

/// Small dense ordinal of the calling thread (0, 1, 2, ... in first-call
/// order) — counters shard on it and trace events use it as their tid.
std::uint32_t thread_ordinal();

/// Percentile/mean/max digest of one histogram window. Values carry the
/// unit the histogram was recorded in times `scale` (time histograms record
/// nanoseconds; summary(1e-6) reports milliseconds). Percentiles are
/// bucket-midpoint estimates with relative error bounded by the histogram's
/// bucket width (<= 1/16 per octave); count, mean and max are exact.
struct Summary {
  std::uint64_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Monotonic counter with a per-thread-sharded hot path: inc() is one
/// relaxed fetch_add on a cache-line-private slot picked by the calling
/// thread's ordinal, so concurrent writers on different threads never
/// contend on one line. value() sums the shards (monotone but momentarily
/// stale under concurrent writers — exact once they quiesce).
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  void inc(std::uint64_t n = 1) { slot().fetch_add(n, std::memory_order_relaxed); }

  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const Slot& s : slots_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> v{0};
  };

  std::atomic<std::uint64_t>& slot();

  std::array<Slot, kShards> slots_{};
};

/// Point-in-time signed value (queue depths, pool occupancy) plus a
/// lifetime high-watermark. All operations are relaxed atomics.
class Gauge {
 public:
  void set(std::int64_t v) {
    v_.store(v, std::memory_order_relaxed);
    raise_max(v);
  }
  void add(std::int64_t d) { raise_max(v_.fetch_add(d, std::memory_order_relaxed) + d); }

  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  std::int64_t max_value() const { return max_.load(std::memory_order_relaxed); }

 private:
  void raise_max(std::int64_t v) {
    std::int64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::int64_t> v_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Readout of one histogram: exact count/sum/max plus the non-empty
/// buckets as (inclusive upper bound, count) pairs in ascending order.
/// Snapshots subtract (see delta()) so a bench can report the percentile
/// distribution of just its own window on the process-wide registry.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;

  /// Nearest-rank percentile estimate (bucket midpoint, clamped to max);
  /// p in [0, 1]. Zero when the window is empty.
  double percentile(double p) const;
  Summary summary(double scale = 1.0) const;
};

/// Fixed-bucket log-scale histogram for latency-style values. Layout: 16
/// exact unit buckets (values 0..15), then 16 sub-buckets per power-of-two
/// octave up to 2^64 — relative bucket width 1/16 (6.25%), 976 buckets,
/// ~8 KB. record() is lock-free: one bucket index computation (a count-
/// leading-zeros and two shifts) plus three relaxed atomic adds and a
/// relaxed max CAS; there is no per-record allocation or lock anywhere.
/// Time histograms record nanoseconds by convention (record_ms converts).
class Histogram {
 public:
  static constexpr int kSubBits = 4;
  static constexpr int kSub = 1 << kSubBits;                    // 16
  static constexpr int kBuckets = kSub + (64 - kSubBits) * kSub;  // 976

  static int bucket_index(std::uint64_t v);
  /// Inclusive upper bound of bucket i (the largest value mapping to it).
  static std::uint64_t bucket_upper(int i);
  /// Smallest value mapping to bucket i.
  static std::uint64_t bucket_lower(int i);

  void record(std::uint64_t v) {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  /// Record a duration given in milliseconds (stored as ns; negatives
  /// clamp to 0).
  void record_ms(double ms) {
    record(ms <= 0.0 ? 0 : static_cast<std::uint64_t>(ms * 1e6));
  }

  HistogramSnapshot snapshot() const;
  Summary summary(double scale = 1.0) const { return snapshot().summary(scale); }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// One consistent-enough readout of every registered metric (counters and
/// histograms are monotonic, so two snapshots subtract into a window).
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  struct GaugeValue {
    std::int64_t value = 0;
    std::int64_t max = 0;
  };
  std::map<std::string, GaugeValue> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// `now` minus `base`: counters and histogram buckets subtract (metrics
/// absent from `base` pass through), gauges keep their `now` reading. The
/// delta's histogram max is conservative: min(now.max, highest non-empty
/// delta bucket's upper bound) — exact when the window contains the
/// lifetime max.
Snapshot delta(const Snapshot& now, const Snapshot& base);

/// One-line JSON document: {"counters":{...},"gauges":{name:{"value":..,
/// "max":..}},"histograms":{name:{"count":..,"mean":..,"p50":..,...,
/// "buckets":[[upper,count],...]}}}. Histogram summaries are emitted in the
/// recorded unit (ns for time histograms).
std::string to_json(const Snapshot& snapshot);

/// Process-wide name -> metric registry. Lookup takes a mutex and is meant
/// for initialization (hold the returned reference — typically in a
/// function-local static); recording through the reference is lock-free.
/// Metric objects live for the process lifetime: references never dangle.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  Snapshot snapshot() const;

  /// The process-wide instance every built-in instrumentation point
  /// records into (intentionally leaked: safe from static destructors and
  /// detached threads).
  static Registry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// to_json(Registry::global().snapshot()): every metric in the process as
/// one JSON document.
std::string snapshot_json();

}  // namespace deepseq::obs
