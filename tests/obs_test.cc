// The observability-spine contract (obs/metrics.h, obs/startup.h):
//  - Counter/Gauge/Histogram record correctly from one thread and under
//    concurrent writers (counters never lose an increment, gauge Add()s
//    never lose a delta),
//  - recording never aborts, whatever the value (histogram clamps into
//    its last bucket; quantiles stay ordered),
//  - recording through resolved metric pointers is allocation-free
//    (instrumented operator new),
//  - the Registry is grow-only and pointer-stable: the same name returns
//    the same object, registration threads race safely,
//  - snapshots flatten to sorted (name, value) pairs, honor prefixes, and
//    expand histograms to .count/.p50/.p90/.p99/.max,
//  - RenderText/RenderJson emit the pinned formats (CI greps the text
//    form; the JSON form must always parse, non-finite values included),
//  - the unified startup line has the pinned "[dhmm] startup: kernels "
//    prefix and LogStartup() exports the resolved ISA gauge.
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "linalg/kernels_dispatch.h"
#include "obs/metrics.h"
#include "obs/startup.h"

namespace dhmm {
namespace {

// Samples recorded across every bucket and stripe.
uint64_t Count(const obs::Histogram& h) {
  uint64_t merged[obs::Histogram::kBuckets];
  h.MergedCounts(merged);
  uint64_t total = 0;
  for (uint64_t c : merged) total += c;
  return total;
}

// True when the snapshot holds an entry named `name`.
bool Has(const obs::Snapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.values) {
    if (n == name) return true;
  }
  return false;
}

// ---------------------------------------------------------------- Counter ---

TEST(CounterTest, AddAndValue) {
  obs::Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(CounterTest, ConcurrentAddsNeverLoseAnIncrement) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

// ------------------------------------------------------------------ Gauge ---

TEST(GaugeTest, SetAndAddRoundTripDoubles) {
  obs::Gauge g;
  EXPECT_EQ(g.Value(), 0.0);
  g.Set(-12.75);
  EXPECT_EQ(g.Value(), -12.75);
  g.Add(2.25);
  EXPECT_EQ(g.Value(), -10.5);
  g.Set(1e308);
  EXPECT_EQ(g.Value(), 1e308);
}

TEST(GaugeTest, ConcurrentAddsNeverLoseADelta) {
  obs::Gauge g;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < kPerThread; ++i) {
        g.Add(1.0);
        g.Add(-1.0);
      }
      g.Add(1.0);
    });
  }
  for (auto& t : threads) t.join();
  // Every +1/-1 pair cancels (integer-valued doubles add exactly), so
  // only the one trailing +1 per thread survives.
  EXPECT_EQ(g.Value(), static_cast<double>(kThreads));
}

// -------------------------------------------------------------- Histogram ---

TEST(HistogramTest, BucketOfIsLogScaleAndNeverOutOfRange) {
  EXPECT_EQ(obs::Histogram::BucketOf(0), 0u);
  EXPECT_EQ(obs::Histogram::BucketOf(1), 1u);
  EXPECT_EQ(obs::Histogram::BucketOf(2), 2u);
  EXPECT_EQ(obs::Histogram::BucketOf(3), 2u);
  EXPECT_EQ(obs::Histogram::BucketOf(4), 3u);
  EXPECT_EQ(obs::Histogram::BucketOf(1023), 10u);
  EXPECT_EQ(obs::Histogram::BucketOf(1024), 11u);
  // Everything huge clamps into the last bucket: recording never aborts.
  EXPECT_EQ(obs::Histogram::BucketOf(~uint64_t{0}),
            obs::Histogram::kBuckets - 1);
  EXPECT_EQ(obs::Histogram::BucketOf(uint64_t{1} << 63),
            obs::Histogram::kBuckets - 1);
}

TEST(HistogramTest, CountAndQuantilesAreOrdered) {
  obs::Histogram h;
  EXPECT_EQ(Count(h), 0u);
  EXPECT_EQ(h.ValueAtQuantile(0.5), 0u);  // empty: 0, not an abort
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  h.Record(~uint64_t{0});  // the clamped monster sample
  EXPECT_EQ(Count(h), 1001u);
  const uint64_t p50 = h.ValueAtQuantile(0.5);
  const uint64_t p90 = h.ValueAtQuantile(0.9);
  const uint64_t p99 = h.ValueAtQuantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // The log2 buckets report an upper bound within 2x of the true sample.
  EXPECT_GE(p50, 500u);
  EXPECT_LE(p50, 1023u);
}

TEST(HistogramTest, ConcurrentRecordsNeverLoseASample) {
  obs::Histogram h;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(t) * 1000 + (i & 1023));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(Count(h), kThreads * kPerThread);
}

// ------------------------------------------------------------- allocation ---

TEST(ObsAllocationTest, RecordingIsAllocationFree) {
  obs::Registry& reg = obs::Registry::Global();
  obs::Counter* c = reg.GetCounter("obs_test.alloc.counter");
  obs::Gauge* g = reg.GetGauge("obs_test.alloc.gauge");
  obs::Histogram* h = reg.GetHistogram("obs_test.alloc.hist");
  // Warm the thread-local stripe index before measuring.
  c->Add();
  g->Set(1.0);
  h->Record(1);
  const long before = alloc_counter::Count();
  for (int i = 0; i < 10000; ++i) {
    c->Add(2);
    g->Set(static_cast<double>(i));
    g->Add(0.5);
    h->Record(static_cast<uint64_t>(i));
  }
  (void)c->Value();
  (void)g->Value();
  (void)h->ValueAtQuantile(0.5);
  const long after = alloc_counter::Count();
  EXPECT_EQ(after - before, 0) << "metric recording touched the allocator";
}

// --------------------------------------------------------------- Registry ---

TEST(RegistryTest, SameNameReturnsSameStableObject) {
  obs::Registry& reg = obs::Registry::Global();
  obs::Counter* a = reg.GetCounter("obs_test.registry.stable");
  a->Add(7);
  obs::Counter* b = reg.GetCounter("obs_test.registry.stable");
  EXPECT_EQ(a, b);
  EXPECT_EQ(b->Value(), 7u);
}

TEST(RegistryTest, ConcurrentRegistrationIsRaceFree) {
  obs::Registry& reg = obs::Registry::Global();
  constexpr int kThreads = 8;
  std::vector<obs::Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, &seen, t] {
      obs::Counter* c = reg.GetCounter("obs_test.registry.race");
      c->Add();
      seen[static_cast<size_t>(t)] = c;
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[0], seen[t]);
  EXPECT_EQ(seen[0]->Value(), static_cast<uint64_t>(kThreads));
}

TEST(RegistryTest, SnapshotHonorsPrefixAndExpandsHistograms) {
  obs::Registry& reg = obs::Registry::Global();
  reg.GetCounter("obs_test.snap.requests")->Add(5);
  reg.GetGauge("obs_test.snap.occupancy")->Set(3.5);
  obs::Histogram* h = reg.GetHistogram("obs_test.snap.latency");
  h->Record(10);
  h->Record(20);

  const obs::Snapshot snap = reg.TakeSnapshot("obs_test.snap.");
  EXPECT_EQ(snap.ValueOf("obs_test.snap.requests"), 5.0);
  EXPECT_EQ(snap.ValueOf("obs_test.snap.occupancy"), 3.5);
  EXPECT_EQ(snap.ValueOf("obs_test.snap.latency.count"), 2.0);
  EXPECT_TRUE(Has(snap, "obs_test.snap.latency.p50"));
  EXPECT_TRUE(Has(snap, "obs_test.snap.latency.p90"));
  EXPECT_TRUE(Has(snap, "obs_test.snap.latency.p99"));
  EXPECT_TRUE(Has(snap, "obs_test.snap.latency.max"));
  // The prefix filter excludes everything else.
  for (const auto& [name, value] : snap.values) {
    EXPECT_EQ(name.rfind("obs_test.snap.", 0), 0u) << name;
  }
  // Sorted by name.
  for (size_t i = 1; i < snap.values.size(); ++i) {
    EXPECT_LT(snap.values[i - 1].first, snap.values[i].first);
  }
  EXPECT_EQ(snap.ValueOf("obs_test.snap.absent", -1.0), -1.0);
}

// -------------------------------------------------------------- rendering ---

TEST(RenderTest, TextIsOneNameValueLinePerEntry) {
  obs::Snapshot snap;
  snap.values = {{"a.count", 3.0}, {"b.ratio", 0.5}};
  EXPECT_EQ(obs::RenderText(snap), "a.count 3\nb.ratio 0.5\n");
}

TEST(RenderTest, JsonIsFlatAndNonFiniteBecomesNull) {
  obs::Snapshot snap;
  snap.values = {{"a", 1.0},
                 {"b", std::numeric_limits<double>::infinity()},
                 {"c", std::numeric_limits<double>::quiet_NaN()}};
  const std::string json = obs::RenderJson(snap);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"a\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"b\": null"), std::string::npos);
  EXPECT_NE(json.find("\"c\": null"), std::string::npos);
}

// ---------------------------------------------------------------- startup ---

TEST(StartupTest, LinePinnedFormatAndIsaGauge) {
  // The unified line embeds the kernel resolution verbatim. CI greps this
  // exact prefix from the test's stderr — change them together.
  const std::string line = obs::StartupLine();
  EXPECT_EQ(line.rfind("[dhmm] startup: kernels isa=", 0), 0u) << line;
  EXPECT_NE(line.find(" detected="), std::string::npos);
  EXPECT_NE(line.find(" override="), std::string::npos);
  EXPECT_NE(line.find(" fixed_k<="), std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  // LogStartup prints once per process (to stderr, where CI greps it) and
  // refreshes the ISA gauge on every call.
  obs::LogStartup();
  obs::LogStartup();
  const obs::Snapshot snap = obs::Registry::Global().TakeSnapshot("startup.");
  ASSERT_TRUE(Has(snap, "startup.kernel_isa"));
  const double isa = snap.ValueOf("startup.kernel_isa", -1.0);
  EXPECT_EQ(isa, static_cast<double>(
                     static_cast<int>(linalg::kernels::ActiveIsa())));
  EXPECT_GE(isa, 0.0);
  EXPECT_LE(isa, 2.0);
}

}  // namespace
}  // namespace dhmm
