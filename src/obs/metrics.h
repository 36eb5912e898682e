#ifndef ANGELPTM_OBS_METRICS_H_
#define ANGELPTM_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/thread_annotations.h"

namespace angelptm::obs {

/// Process-wide metrics registry for runtime observability (DESIGN.md §8).
///
/// Every subsystem that does real work — page movement, SSD I/O, the
/// lock-free updater, the training loop — registers named handles once at
/// construction and bumps them on the hot path with single relaxed atomic
/// operations. Handles are deduplicated by name and never deallocated, so a
/// pointer obtained from the registry stays valid for the process lifetime
/// and instances of the same class share one process-wide series.
///
/// Naming convention: "subsystem/metric" ("ssd/io_retries",
/// "mem/page_move_bytes"); the subsystem prefix doubles as the span
/// category used by the tracer (obs/trace.h).

/// Exponential bucketing shared by Histogram and HistogramData: bucket 0
/// holds the value 0; bucket i (1..64) holds [2^(i-1), 2^i). Covers the
/// full uint64 range with 65 buckets, index computable in O(1) from the
/// bit width of the value.
inline constexpr size_t kNumHistogramBuckets = 65;

size_t HistogramBucketIndex(uint64_t value);
/// Smallest value landing in `bucket` (0, 1, 2, 4, 8, ...).
uint64_t HistogramBucketLowerBound(size_t bucket);
/// Largest value landing in `bucket` (inclusive: 0, 1, 3, 7, ...).
uint64_t HistogramBucketUpperBound(size_t bucket);

/// Plain-value exponential histogram: what Histogram::Snapshot() returns,
/// and what single-threaded recorders (the trainers' per-phase timers) use
/// directly. Not thread-safe.
struct HistogramData {
  std::array<uint64_t, kNumHistogramBuckets> buckets{};
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;

  void Record(uint64_t value);
  void Merge(const HistogramData& other);
  double Mean() const;
  /// Upper bound (inclusive) of the bucket holding the p-quantile sample,
  /// p in (0, 1], clamped to `max`: an overestimate by at most 2x, like any
  /// bucketed percentile, but never above the largest recorded value, so
  /// p50 <= p95 <= max. 0 when empty.
  uint64_t Percentile(double p) const;
  /// "count=12 mean=2.3 p50=3 p95=15 max=9".
  std::string Summary() const;
  /// {"count":12,"mean":2.3,"p50":3,"p95":15,"max":9}
  std::string ToJson() const;
};

/// Monotonically increasing counter. O(1) relaxed atomic on the hot path.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  friend class Registry;
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  std::atomic<uint64_t> value_{0};
};

/// Instantaneous signed level (queue depth, pending batches).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  friend class Registry;
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  std::atomic<int64_t> value_{0};
};

/// Thread-safe exponential histogram handle. Record is a handful of relaxed
/// atomic adds; Snapshot reads the buckets relaxed, so a snapshot taken
/// while writers are active can be skewed by in-flight samples (count and
/// sum may momentarily disagree by one sample) — fine for observability,
/// not for accounting.
class Histogram {
 public:
  void Record(uint64_t value);
  HistogramData Snapshot() const;
  void Reset();

 private:
  friend class Registry;
  Histogram();
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  std::array<std::atomic<uint64_t>, kNumHistogramBuckets> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// Point-in-time copy of every registered metric, sorted by name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramData>> histograms;

  /// {"counters":{"mem/page_moves":3,...},"gauges":{...},
  ///  "histograms":{"ssd/pread_us":{"count":...},...}}
  std::string ToJson() const;
};

/// The process-wide registry. Get* takes a mutex (cold path, construction
/// time); the returned handle is the lock-free hot path.
class Registry {
 public:
  static Registry& Instance();

  Counter* GetCounter(const std::string& name) ANGEL_EXCLUDES(mutex_);
  Gauge* GetGauge(const std::string& name) ANGEL_EXCLUDES(mutex_);
  Histogram* GetHistogram(const std::string& name) ANGEL_EXCLUDES(mutex_);

  MetricsSnapshot Snapshot() const ANGEL_EXCLUDES(mutex_);

  /// Zeroes every metric (handles stay valid). Metrics are process-wide
  /// and cumulative; tests isolate themselves with this.
  void ResetAllForTest() ANGEL_EXCLUDES(mutex_);

 private:
  Registry() = default;

  mutable util::Mutex mutex_{"obs.registry", util::lockrank::kObsRegistry};
  std::map<std::string, std::unique_ptr<Counter>> counters_
      ANGEL_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      ANGEL_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      ANGEL_GUARDED_BY(mutex_);
};

}  // namespace angelptm::obs

#endif  // ANGELPTM_OBS_METRICS_H_
