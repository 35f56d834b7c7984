#ifndef GRTDB_OBS_METRICS_H_
#define GRTDB_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace grtdb {
namespace obs {

// Server-wide metrics: named counters, gauges, and fixed-bucket latency
// histograms. The hot path is pure relaxed atomics on handles the caller
// obtained once from the registry; the registry mutex is taken only at
// registration and Snapshot() time, never per increment. Handles are
// stable for the registry's lifetime (values are heap-allocated and never
// erased), so subsystems cache the pointer at wiring time.

// A counter striped by thread: Add writes only the calling thread's
// stripe, each on its own cache line, so threads counting the same event
// (two readers' node-cache hits) do not pass one line back and forth.
// value() sums the stripes, so the count stays exact; like every metric
// read it is relaxed, exact once the adders are quiet.
class Counter {
 public:
  static constexpr size_t kStripes = 16;

  void Add(uint64_t n = 1) {
    stripes_[ThreadStripe()].value.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const {
    uint64_t sum = 0;
    for (const Stripe& stripe : stripes_) {
      sum += stripe.value.load(std::memory_order_relaxed);
    }
    return sum;
  }
  void Reset() {
    for (Stripe& stripe : stripes_) {
      stripe.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  // The calling thread's stripe: threads take stripes round-robin as they
  // first count anything, so up to kStripes threads never share one.
  static size_t ThreadStripe() {
    static std::atomic<size_t> next{0};
    thread_local const size_t stripe =
        next.fetch_add(1, std::memory_order_relaxed) % kStripes;
    return stripe;
  }

  struct alignas(64) Stripe {
    std::atomic<uint64_t> value{0};
  };
  Stripe stripes_[kStripes];
};

class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

struct HistogramTally;

// Power-of-two bucketed histogram: bucket i counts values v with
// bit_width(v) == i (bucket 0 holds v == 0), so bucket i covers
// [2^(i-1), 2^i). The last bucket absorbs everything at or above
// 2^(kBuckets-2). Units are the caller's (commit latencies record
// microseconds, batch-size histograms record counts).
class Histogram {
 public:
  static constexpr size_t kBuckets = 22;

  // The bucket Record counts `v` in.
  static size_t BucketOf(uint64_t v) {
    size_t b = 0;
    while (b + 1 < kBuckets && (v >> b) != 0) ++b;
    return b;
  }

  void Record(uint64_t v) {
    buckets_[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  // Adds samples tallied elsewhere: afterwards the histogram holds what
  // Record-ing each of them would have left.
  inline void Merge(const HistogramTally& tally);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  // Exclusive upper bound of bucket i (the last bucket has none).
  static uint64_t BucketBound(size_t i) { return 1ull << i; }

  // Estimated q-quantile (0 < q <= 1) from the bucket counts, linearly
  // interpolated inside the winning power-of-two bucket. An empty
  // histogram reports 0; the open-ended overflow bucket reports its lower
  // bound. Relaxed reads make this an estimate under concurrent
  // recording — the usual monitoring contract, same as Snapshot().
  uint64_t Quantile(double q) const {
    uint64_t counts[kBuckets];
    uint64_t total = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      counts[i] = buckets_[i].load(std::memory_order_relaxed);
      total += counts[i];
    }
    if (total == 0) return 0;
    // The 1-based rank of the sample the quantile lands on.
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total));
    if (rank == 0) rank = 1;
    if (rank > total) rank = total;
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (seen + counts[i] < rank) {
        seen += counts[i];
        continue;
      }
      if (i == 0) return 0;  // bucket 0 holds v == 0 exactly
      const uint64_t lo = 1ull << (i - 1);  // bucket i covers [2^(i-1), 2^i)
      if (i + 1 == kBuckets) return lo;
      const double into = static_cast<double>(rank - seen) /
                          static_cast<double>(counts[i]);
      return lo + static_cast<uint64_t>(into * static_cast<double>(lo));
    }
    return 0;
  }

  void Reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

// A Histogram's buckets, count and sum kept by one thread without atomics,
// for Histogram::Merge to add to the shared one in a single step.
struct HistogramTally {
  uint64_t buckets[Histogram::kBuckets] = {};
  uint64_t count = 0;
  uint64_t sum = 0;

  void Record(uint64_t v) {
    ++buckets[Histogram::BucketOf(v)];
    ++count;
    sum += v;
  }
};

inline void Histogram::Merge(const HistogramTally& tally) {
  for (size_t i = 0; i < kBuckets; ++i) {
    if (tally.buckets[i] != 0) {
      buckets_[i].fetch_add(tally.buckets[i], std::memory_order_relaxed);
    }
  }
  count_.fetch_add(tally.count, std::memory_order_relaxed);
  sum_.fetch_add(tally.sum, std::memory_order_relaxed);
}

// One metric at Snapshot() time.
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  int64_t value = 0;    // counter/gauge value; histograms report count/sum
  uint64_t count = 0;   // histogram sample count
  uint64_t sum = 0;     // histogram value sum
  // Non-empty histogram buckets rendered "lt<bound>:<count>", space
  // separated; the overflow bucket renders "inf:<count>".
  std::string buckets;

  const char* KindName() const {
    switch (kind) {
      case Kind::kCounter: return "counter";
      case Kind::kGauge: return "gauge";
      case Kind::kHistogram: return "histogram";
    }
    return "?";
  }
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Get-or-create by name. The returned pointer is stable for the
  // registry's lifetime; callers cache it and update through it without
  // further registry involvement.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  // Consistent-enough snapshot of every registered metric, sorted by
  // (name, kind). Values are read with relaxed loads; concurrent updates
  // may or may not be visible, which is the usual monitoring contract.
  std::vector<MetricSample> Snapshot() const;

  // Zeroes every metric (benchmark epochs); handles stay valid.
  void ResetAll();

  // Prometheus text exposition format (EXPORT METRICS, tools/grtdb_metrics):
  // names are prefixed "grtdb_" with '.' mapped to '_', each metric gets a
  // "# TYPE" line, and histograms render as cumulative _bucket{le="..."}
  // series (inclusive upper bounds, so le="N" counts v <= N) plus the
  // mandatory le="+Inf", _sum, and _count series and precomputed _p50 /
  // _p99 quantile gauges (Quantile() estimates).
  std::string ExportText() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace grtdb

#endif  // GRTDB_OBS_METRICS_H_
