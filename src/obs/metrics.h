// Lock-free, allocation-free-at-steady-state metric primitives.
//
// The serving stack needs to see itself run (shed counts, latency
// percentiles, store failovers) without giving up its standing contracts:
// steady-state request paths make zero heap allocations, recording never
// aborts, and nothing in the hot path takes a lock. The design mirrors
// the one-shot kernel-dispatch idiom from linalg/kernels_dispatch.h:
//
//  - Registration is grow-only and happens at construction/startup time
//    through the process-wide obs::Registry (mutex-guarded, allocates).
//    Registered metric objects are pointer-stable for the life of the
//    process, so call sites hold a raw pointer resolved once.
//  - Recording is the hot path: one thread-local stripe lookup plus one
//    relaxed atomic op on a cache-line-isolated slot. No locks, no
//    allocation, no ordering stronger than relaxed.
//  - Reading merges the stripes. Snapshots are approximate under
//    concurrent writers (each stripe is read atomically, the sum is not)
//    but exact once writers are quiescent — which is when tests
//    reconcile them.
//
// Three primitives cover the stack's needs: monotonic Counter, last-value
// Gauge, and a fixed-bucket log2-scale Histogram for latencies. Snapshots
// flatten everything to (name, double) pairs renderable as text or JSON;
// histogram H contributes H.count / H.p50 / H.p90 / H.p99 / H.max.
#ifndef DHMM_OBS_METRICS_H_
#define DHMM_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dhmm::obs {

/// Cache-line-isolated slots per metric. Threads map onto stripes by a
/// stable per-thread index, so two recording threads rarely share a line.
/// Power of two: the stripe pick is a mask, not a modulo.
inline constexpr std::size_t kStripes = 16;

namespace internal {

/// Stable per-thread stripe index in [0, kStripes). Assigned once per
/// thread from a process-wide counter; after the first call from a thread
/// this is a thread_local read — no atomics, no allocation.
inline std::size_t ThreadStripe() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed) & (kStripes - 1);
  return stripe;
}

}  // namespace internal

/// \brief Monotonic striped counter. Add() is one relaxed fetch_add on
/// the caller's stripe; Value() sums the stripes.
class Counter {
 public:
  void Add(uint64_t n = 1) noexcept {
    cells_[internal::ThreadStripe()].v.fetch_add(n,
                                                 std::memory_order_relaxed);
  }

  uint64_t Value() const noexcept {
    uint64_t sum = 0;
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  Cell cells_[kStripes];
};

/// \brief Last-value gauge holding a double (stored as raw bits in one
/// atomic word). Set() is a relaxed store; Add() is a relaxed CAS loop —
/// both allocation-free. Concurrent Set()s race benignly (last writer
/// wins); concurrent Add()s never lose a delta.
class Gauge {
 public:
  void Set(double v) noexcept {
    bits_.store(Encode(v), std::memory_order_relaxed);
  }

  void Add(double delta) noexcept {
    uint64_t cur = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(cur, Encode(Decode(cur) + delta),
                                        std::memory_order_relaxed,
                                        std::memory_order_relaxed)) {
    }
  }

  double Value() const noexcept {
    return Decode(bits_.load(std::memory_order_relaxed));
  }

 private:
  static uint64_t Encode(double v) noexcept {
    uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
  }
  static double Decode(uint64_t b) noexcept {
    double v;
    std::memcpy(&v, &b, sizeof(v));
    return v;
  }

  std::atomic<uint64_t> bits_{0};  // the bit pattern of 0.0
};

/// \brief Fixed-bucket log2-scale histogram for non-negative integer
/// samples (latencies in microseconds, batch sizes). Bucket i >= 1 covers
/// [2^(i-1), 2^i - 1]; bucket 0 holds exact zeros; the last bucket
/// absorbs everything above — Record() clamps and never aborts, whatever
/// the value. Recording is one relaxed fetch_add on the caller's stripe.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 32;

  void Record(uint64_t value) noexcept {
    cells_[internal::ThreadStripe()].counts[BucketOf(value)].fetch_add(
        1, std::memory_order_relaxed);
  }

  /// Stripe-merged per-bucket counts.
  void MergedCounts(uint64_t out[kBuckets]) const noexcept {
    for (std::size_t b = 0; b < kBuckets; ++b) out[b] = 0;
    for (const Cell& cell : cells_) {
      for (std::size_t b = 0; b < kBuckets; ++b) {
        out[b] += cell.counts[b].load(std::memory_order_relaxed);
      }
    }
  }

  /// Upper bound of the bucket containing quantile q in [0, 1]; 0 when
  /// the histogram is empty. An upper-bound estimate: the true sample is
  /// within 2x (one bucket) of the reported value.
  uint64_t ValueAtQuantile(double q) const noexcept {
    uint64_t merged[kBuckets];
    MergedCounts(merged);
    uint64_t total = 0;
    for (uint64_t c : merged) total += c;
    if (total == 0) return 0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const uint64_t rank = static_cast<uint64_t>(q * (total - 1)) + 1;
    uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      seen += merged[b];
      if (seen >= rank) return BucketUpperBound(b);
    }
    return BucketUpperBound(kBuckets - 1);
  }

  /// Bucket index for a sample (see class comment).
  static std::size_t BucketOf(uint64_t value) noexcept {
    if (value == 0) return 0;
    const std::size_t width =
        64 - static_cast<std::size_t>(__builtin_clzll(value));
    return width < kBuckets ? width : kBuckets - 1;
  }

  /// Inclusive upper bound of bucket idx (0 for bucket 0).
  static uint64_t BucketUpperBound(std::size_t idx) noexcept {
    if (idx == 0) return 0;
    if (idx >= kBuckets - 1) return ~uint64_t{0};
    return (uint64_t{1} << idx) - 1;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> counts[kBuckets] = {};
  };
  Cell cells_[kStripes] = {};
};

/// \brief Flattened point-in-time view of the registry: (name, value)
/// pairs sorted by name. Counters appear under their registered name,
/// gauges likewise; a histogram H expands to H.count/H.p50/H.p90/H.p99/
/// H.max.
struct Snapshot {
  std::vector<std::pair<std::string, double>> values;

  /// Value for an exact name; `fallback` when absent.
  double ValueOf(const std::string& name, double fallback = 0.0) const {
    for (const auto& [n, v] : values) {
      if (n == name) return v;
    }
    return fallback;
  }
};

/// \brief Process-wide grow-only metric registry. Get*() registers on
/// first use and returns the same pointer-stable object for the same
/// name thereafter (deque-backed storage; entries are never removed).
/// Registering the same name as two different metric kinds is a
/// programming error and CHECK-fails at registration time — recording
/// through an already-resolved pointer can never abort.
class Registry {
 public:
  static Registry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Snapshot of every metric whose name starts with `prefix` (empty =
  /// everything). Allocates; not for hot paths.
  Snapshot TakeSnapshot(const std::string& prefix = std::string()) const;

 private:
  enum class MetricKind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    MetricKind kind;
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
  };

  Entry* FindLocked(const std::string& name);

  mutable std::mutex mu_;
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::vector<Entry> entries_;
};

/// One "name value" line per entry, sorted by name, '\n'-terminated.
std::string RenderText(const Snapshot& snapshot);

/// A flat JSON object {"name": value, ...}; non-finite values render as
/// null so the output always parses.
std::string RenderJson(const Snapshot& snapshot);

}  // namespace dhmm::obs

#endif  // DHMM_OBS_METRICS_H_
