#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace angelptm::obs {
namespace {

/// Shared by HistogramData::ToJson and MetricsSnapshot::ToJson; metric
/// names are code-controlled identifiers, but escape the JSON-significant
/// characters anyway so the emitted file always parses.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string FormatDoubleJson(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

size_t HistogramBucketIndex(uint64_t value) {
  return value == 0 ? 0 : static_cast<size_t>(std::bit_width(value));
}

uint64_t HistogramBucketLowerBound(size_t bucket) {
  if (bucket == 0) return 0;
  return uint64_t{1} << (bucket - 1);
}

uint64_t HistogramBucketUpperBound(size_t bucket) {
  if (bucket == 0) return 0;
  if (bucket >= 64) return ~uint64_t{0};
  return (uint64_t{1} << bucket) - 1;
}

void HistogramData::Record(uint64_t value) {
  buckets[HistogramBucketIndex(value)] += 1;
  count += 1;
  sum += value;
  if (value > max) max = value;
}

void HistogramData::Merge(const HistogramData& other) {
  for (size_t i = 0; i < kNumHistogramBuckets; ++i) {
    buckets[i] += other.buckets[i];
  }
  count += other.count;
  sum += other.sum;
  if (other.max > max) max = other.max;
}

double HistogramData::Mean() const {
  return count == 0 ? 0.0 : double(sum) / double(count);
}

uint64_t HistogramData::Percentile(double p) const {
  if (count == 0) return 0;
  const uint64_t target = uint64_t(p * double(count) + 0.9999999);
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumHistogramBuckets; ++i) {
    seen += buckets[i];
    // The bucket bound overestimates by up to 2x; no sample exceeds max.
    if (seen >= target) return std::min(HistogramBucketUpperBound(i), max);
  }
  return max;
}

std::string HistogramData::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "count=%llu mean=%.2f p50=%llu p95=%llu max=%llu",
                (unsigned long long)count, Mean(),
                (unsigned long long)Percentile(0.5),
                (unsigned long long)Percentile(0.95),
                (unsigned long long)max);
  return buf;
}

std::string HistogramData::ToJson() const {
  std::string out = "{\"count\":" + std::to_string(count);
  out += ",\"mean\":" + FormatDoubleJson(Mean());
  out += ",\"p50\":" + std::to_string(Percentile(0.5));
  out += ",\"p95\":" + std::to_string(Percentile(0.95));
  out += ",\"max\":" + std::to_string(max);
  out += "}";
  return out;
}

Histogram::Histogram() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
}

void Histogram::Record(uint64_t value) {
  buckets_[HistogramBucketIndex(value)].fetch_add(1,
                                                  std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  uint64_t seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

HistogramData Histogram::Snapshot() const {
  HistogramData data;
  for (size_t i = 0; i < kNumHistogramBuckets; ++i) {
    data.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  data.count = count_.load(std::memory_order_relaxed);
  data.sum = sum_.load(std::memory_order_relaxed);
  data.max = max_.load(std::memory_order_relaxed);
  return data;
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  for (size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + JsonEscape(counters[i].first) +
           "\":" + std::to_string(counters[i].second);
  }
  out += "},\"gauges\":{";
  for (size_t i = 0; i < gauges.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + JsonEscape(gauges[i].first) +
           "\":" + std::to_string(gauges[i].second);
  }
  out += "},\"histograms\":{";
  for (size_t i = 0; i < histograms.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + JsonEscape(histograms[i].first) +
           "\":" + histograms[i].second.ToJson();
  }
  out += "}}";
  return out;
}

Registry& Registry::Instance() {
  // Leaked on purpose: subsystems bump handles from background threads that
  // may outlive main()'s locals, and static destruction must not race them.
  static Registry* instance = new Registry();  // lint: naked-new (leaked singleton)
  return *instance;
}

Counter* Registry::GetCounter(const std::string& name) {
  util::MutexLock lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::unique_ptr<Counter>(new Counter());
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  util::MutexLock lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::unique_ptr<Gauge>(new Gauge());
  return slot.get();
}

Histogram* Registry::GetHistogram(const std::string& name) {
  util::MutexLock lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::unique_ptr<Histogram>(new Histogram());
  return slot.get();
}

MetricsSnapshot Registry::Snapshot() const {
  util::MutexLock lock(mutex_);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace_back(name, counter->Value());
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.emplace_back(name, gauge->Value());
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms.emplace_back(name, histogram->Snapshot());
  }
  return snapshot;
}

void Registry::ResetAllForTest() {
  util::MutexLock lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace angelptm::obs
