#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>

namespace deepseq::obs {

std::uint32_t thread_ordinal() {
  static std::atomic<std::uint32_t> next{0};
  thread_local std::uint32_t ordinal = next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

}  // namespace

std::atomic<std::uint64_t>& Counter::slot() {
  return slots_[thread_ordinal() % kShards].v;
}

// ---- histogram bucket math -------------------------------------------------

int Histogram::bucket_index(std::uint64_t v) {
  if (v < static_cast<std::uint64_t>(kSub)) return static_cast<int>(v);
  const int e = 63 - std::countl_zero(v);  // floor log2, >= kSubBits
  const int sub =
      static_cast<int>((v >> (e - kSubBits)) & (static_cast<std::uint64_t>(kSub) - 1));
  return kSub + (e - kSubBits) * kSub + sub;
}

std::uint64_t Histogram::bucket_lower(int i) {
  if (i < kSub) return static_cast<std::uint64_t>(i);
  const int e = kSubBits + (i - kSub) / kSub;
  const int sub = (i - kSub) % kSub;
  return (std::uint64_t{1} << e) +
         (static_cast<std::uint64_t>(sub) << (e - kSubBits));
}

std::uint64_t Histogram::bucket_upper(int i) {
  if (i < kSub) return static_cast<std::uint64_t>(i);
  const int e = kSubBits + (i - kSub) / kSub;
  const std::uint64_t width = std::uint64_t{1} << (e - kSubBits);
  return bucket_lower(i) + width - 1;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t n = buckets_[i].load(std::memory_order_relaxed);
    if (n == 0) continue;
    s.count += n;
    s.buckets.emplace_back(bucket_upper(i), n);
  }
  s.sum = sum_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  return s;
}

double HistogramSnapshot::percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::min(1.0, std::max(0.0, p));
  // Nearest rank: the value whose cumulative count first reaches rank.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(p * static_cast<double>(count) + 0.5));
  std::uint64_t seen = 0;
  for (const auto& [upper, n] : buckets) {
    seen += n;
    if (seen >= rank) {
      // Midpoint of the bucket, never past the exact max.
      const double lower =
          upper == 0 ? 0.0
                     : static_cast<double>(
                           Histogram::bucket_lower(Histogram::bucket_index(upper)));
      const double mid = (lower + static_cast<double>(upper)) / 2.0;
      return std::min(mid, static_cast<double>(max));
    }
  }
  return static_cast<double>(max);
}

Summary HistogramSnapshot::summary(double scale) const {
  Summary s;
  s.count = count;
  if (count == 0) return s;
  s.mean = static_cast<double>(sum) / static_cast<double>(count) * scale;
  s.p50 = percentile(0.50) * scale;
  s.p90 = percentile(0.90) * scale;
  s.p99 = percentile(0.99) * scale;
  s.max = static_cast<double>(max) * scale;
  return s;
}

// ---- snapshot / delta / json -----------------------------------------------

Snapshot delta(const Snapshot& now, const Snapshot& base) {
  Snapshot d;
  for (const auto& [name, v] : now.counters) {
    const auto it = base.counters.find(name);
    const std::uint64_t b = it == base.counters.end() ? 0 : it->second;
    d.counters[name] = v >= b ? v - b : 0;
  }
  d.gauges = now.gauges;
  for (const auto& [name, h] : now.histograms) {
    const auto it = base.histograms.find(name);
    if (it == base.histograms.end()) {
      d.histograms[name] = h;
      continue;
    }
    const HistogramSnapshot& bh = it->second;
    HistogramSnapshot dh;
    std::map<std::uint64_t, std::uint64_t> counts(h.buckets.begin(),
                                                  h.buckets.end());
    for (const auto& [upper, n] : bh.buckets) {
      auto c = counts.find(upper);
      if (c != counts.end()) c->second = c->second >= n ? c->second - n : 0;
    }
    std::uint64_t top = 0;
    for (const auto& [upper, n] : counts) {
      if (n == 0) continue;
      dh.buckets.emplace_back(upper, n);
      dh.count += n;
      top = upper;
    }
    dh.sum = h.sum >= bh.sum ? h.sum - bh.sum : 0;
    dh.max = std::min(h.max, top);
    d.histograms[name] = std::move(dh);
  }
  return d;
}

std::string to_json(const Snapshot& snapshot) {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : snapshot.counters) {
    if (!first) out.push_back(',');
    first = false;
    append_escaped(out, name);
    out.push_back(':');
    out += std::to_string(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : snapshot.gauges) {
    if (!first) out.push_back(',');
    first = false;
    append_escaped(out, name);
    out += ":{\"value\":" + std::to_string(g.value) +
           ",\"max\":" + std::to_string(g.max) + "}";
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    if (!first) out.push_back(',');
    first = false;
    append_escaped(out, name);
    const Summary s = h.summary();
    out += ":{\"count\":" + std::to_string(h.count);
    out += ",\"sum\":" + std::to_string(h.sum);
    out += ",\"max\":" + std::to_string(h.max);
    out += ",\"mean\":";
    append_double(out, s.mean);
    out += ",\"p50\":";
    append_double(out, s.p50);
    out += ",\"p90\":";
    append_double(out, s.p90);
    out += ",\"p99\":";
    append_double(out, s.p99);
    out += ",\"buckets\":[";
    bool bfirst = true;
    for (const auto& [upper, n] : h.buckets) {
      if (!bfirst) out.push_back(',');
      bfirst = false;
      out += "[" + std::to_string(upper) + "," + std::to_string(n) + "]";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

// ---- registry --------------------------------------------------------------

Registry& Registry::global() {
  static Registry* r = new Registry();  // leaked: see header
  return *r;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot s;
  for (const auto& [name, c] : counters_) s.counters[name] = c->value();
  for (const auto& [name, g] : gauges_)
    s.gauges[name] = {g->value(), g->max_value()};
  for (const auto& [name, h] : histograms_) s.histograms[name] = h->snapshot();
  return s;
}

std::string snapshot_json() { return to_json(Registry::global().snapshot()); }

}  // namespace deepseq::obs
