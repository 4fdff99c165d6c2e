#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "runtime/thread_pool.hpp"
#include "support/json_check.hpp"

namespace deepseq::obs {
namespace {

// ---- counters --------------------------------------------------------------

TEST(ObsCounter, ConcurrentIncrementsAreExact) {
  Counter c;
  constexpr int kTasks = 64;
  constexpr int kPerTask = 10000;
  {
    runtime::ThreadPool pool(8);
    for (int t = 0; t < kTasks; ++t)
      pool.submit([&c] {
        for (int i = 0; i < kPerTask; ++i) c.inc();
      });
  }  // destruction runs every queued task
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kTasks) * kPerTask);
}

TEST(ObsCounter, IncByDelta) {
  Counter c;
  c.inc(5);
  c.inc(7);
  EXPECT_EQ(c.value(), 12u);
}

TEST(ObsThreadOrdinal, StablePerThread) {
  const std::uint32_t here = thread_ordinal();
  EXPECT_EQ(thread_ordinal(), here);
  std::uint32_t other = here;
  std::thread([&other] { other = thread_ordinal(); }).join();
  EXPECT_NE(other, here);
}

// ---- gauges ----------------------------------------------------------------

TEST(ObsGauge, TracksValueAndWatermark) {
  Gauge g;
  g.set(5);
  g.set(2);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.max_value(), 5);
  g.add(10);
  EXPECT_EQ(g.value(), 12);
  EXPECT_EQ(g.max_value(), 12);
  g.add(-12);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.max_value(), 12);
}

// ---- histogram bucket math -------------------------------------------------

TEST(ObsHistogram, SmallValuesGetExactBuckets) {
  for (std::uint64_t v = 0; v < Histogram::kSub; ++v) {
    EXPECT_EQ(Histogram::bucket_index(v), static_cast<int>(v));
    EXPECT_EQ(Histogram::bucket_lower(static_cast<int>(v)), v);
    EXPECT_EQ(Histogram::bucket_upper(static_cast<int>(v)), v);
  }
}

TEST(ObsHistogram, BucketBoundsPartitionTheRange) {
  // Buckets tile [0, 2^64) without gaps or overlaps, and every probed value
  // maps into the bucket whose bounds contain it.
  for (int i = 0; i + 1 < Histogram::kBuckets; ++i) {
    ASSERT_EQ(Histogram::bucket_upper(i) + 1, Histogram::bucket_lower(i + 1))
        << "gap after bucket " << i;
  }
  std::uint64_t probes[] = {0,    1,     15,     16,        17,
                            255,  256,   1000,   123456789, std::uint64_t{1} << 40,
                            (std::uint64_t{1} << 63) + 12345};
  for (std::uint64_t v : probes) {
    const int i = Histogram::bucket_index(v);
    ASSERT_GE(i, 0);
    ASSERT_LT(i, Histogram::kBuckets);
    EXPECT_LE(Histogram::bucket_lower(i), v);
    EXPECT_GE(Histogram::bucket_upper(i), v);
  }
}

TEST(ObsHistogram, IndexIsMonotone) {
  int prev = -1;
  for (std::uint64_t v = 0; v < 100000; v = v < 64 ? v + 1 : v + v / 7) {
    const int i = Histogram::bucket_index(v);
    EXPECT_GE(i, prev);
    prev = i;
  }
}

// ---- histogram percentiles vs a sorted-vector oracle -----------------------

TEST(ObsHistogram, PercentilesMatchSortedOracleWithinBucketWidth) {
  // Deterministic skewed sample (LCG), spanning several octaves like real
  // latencies do.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  Histogram h;
  std::vector<std::uint64_t> oracle;
  std::uint64_t sum = 0;
  for (int i = 0; i < 20000; ++i) {
    // Mix of fast (~1us), medium (~100us) and slow (~10ms) "latencies".
    const std::uint64_t r = next();
    std::uint64_t v;
    if (r % 10 < 7) {
      v = 500 + r % 1000;
    } else if (r % 10 < 9) {
      v = 50000 + r % 100000;
    } else {
      v = 5000000 + r % 10000000;
    }
    h.record(v);
    oracle.push_back(v);
    sum += v;
  }
  std::sort(oracle.begin(), oracle.end());

  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, oracle.size());
  EXPECT_EQ(snap.sum, sum);
  EXPECT_EQ(snap.max, oracle.back());

  for (double p : {0.5, 0.9, 0.99}) {
    const std::size_t rank = std::min(
        oracle.size() - 1,
        static_cast<std::size_t>(std::ceil(p * static_cast<double>(
                                                   oracle.size()))) -
            1);
    const double exact = static_cast<double>(oracle[rank]);
    const double est = snap.percentile(p);
    // Log-bucket midpoint estimate: relative error bounded by the bucket
    // width (1/16 per octave), plus slack for the rank falling across a
    // bucket boundary.
    EXPECT_NEAR(est, exact, exact * 0.125)
        << "p=" << p << " exact=" << exact << " est=" << est;
  }

  const Summary s = snap.summary();
  EXPECT_EQ(s.count, oracle.size());
  EXPECT_NEAR(s.mean,
              static_cast<double>(sum) / static_cast<double>(oracle.size()),
              1e-6);
  EXPECT_EQ(s.max, static_cast<double>(oracle.back()));
}

TEST(ObsHistogram, RecordMsStoresNanoseconds) {
  Histogram h;
  h.record_ms(1.5);
  h.record_ms(-3.0);  // clamps to 0
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.sum, 1500000u);
  const Summary s = snap.summary(1e-6);
  EXPECT_NEAR(s.max, 1.5, 1.5 / Histogram::kSub);
}

TEST(ObsHistogram, EmptySummaryIsZeros) {
  Histogram h;
  const Summary s = h.summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.p99, 0.0);
  EXPECT_EQ(s.max, 0.0);
}

TEST(ObsHistogram, ConcurrentRecordsKeepExactCountAndSum) {
  Histogram h;
  constexpr int kTasks = 32;
  constexpr int kPerTask = 5000;
  {
    runtime::ThreadPool pool(8);
    for (int t = 0; t < kTasks; ++t)
      pool.submit([&h, t] {
        for (int i = 0; i < kPerTask; ++i)
          h.record(static_cast<std::uint64_t>(t) * kPerTask + i);
      });
  }  // destruction runs every queued task
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kTasks) * kPerTask);
  EXPECT_EQ(snap.max, static_cast<std::uint64_t>(kTasks) * kPerTask - 1);
}

// ---- registry, snapshots, deltas -------------------------------------------

TEST(ObsRegistry, LookupReturnsStableReferences) {
  Registry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&reg.counter("x"), &reg.counter("y"));
}

TEST(ObsRegistry, SnapshotDeltaIsolatesAWindow) {
  Registry reg;
  reg.counter("c").inc(5);
  reg.histogram("h").record(100);
  reg.gauge("g").set(3);

  const Snapshot base = reg.snapshot();
  reg.counter("c").inc(3);
  reg.histogram("h").record(200);
  reg.histogram("h").record(300);
  reg.gauge("g").set(7);
  const Snapshot now = reg.snapshot();

  const Snapshot d = delta(now, base);
  EXPECT_EQ(d.counters.at("c"), 3u);
  EXPECT_EQ(d.histograms.at("h").count, 2u);
  EXPECT_EQ(d.histograms.at("h").sum, 500u);
  // Gauges are point-in-time: the delta keeps the `now` reading.
  EXPECT_EQ(d.gauges.at("g").value, 7);
  // Metrics born inside the window pass through whole.
  reg.counter("late").inc(9);
  const Snapshot d2 = delta(reg.snapshot(), base);
  EXPECT_EQ(d2.counters.at("late"), 9u);
}

TEST(ObsRegistry, SnapshotJsonIsValidAndNamed) {
  Registry reg;
  reg.counter("alpha.count").inc(42);
  reg.gauge("beta.depth").set(-3);
  reg.histogram("gamma \"quoted\\name").record(7);
  const std::string doc = to_json(reg.snapshot());
  EXPECT_TRUE(testing::valid_json(doc)) << doc;
  EXPECT_NE(doc.find("alpha.count"), std::string::npos);
  EXPECT_NE(doc.find("beta.depth"), std::string::npos);
  EXPECT_NE(doc.find("-3"), std::string::npos);
}

TEST(ObsRegistry, GlobalSnapshotJsonIsValid) {
  Registry::global().counter("test.obs.global_marker").inc();
  const std::string doc = snapshot_json();
  EXPECT_TRUE(testing::valid_json(doc));
  EXPECT_NE(doc.find("test.obs.global_marker"), std::string::npos);
}

}  // namespace
}  // namespace deepseq::obs
