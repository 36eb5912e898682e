#include "obs/metrics.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/parallel_for.h"

namespace angelptm::obs {
namespace {

TEST(MetricsRegistryTest, HandlesAreDeduplicatedByName) {
  Registry& registry = Registry::Instance();
  Counter* a = registry.GetCounter("test/dedup_counter");
  Counter* b = registry.GetCounter("test/dedup_counter");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, registry.GetCounter("test/dedup_counter_other"));
  // The same name in different metric kinds names different series.
  Gauge* g = registry.GetGauge("test/dedup_counter");
  Histogram* h = registry.GetHistogram("test/dedup_counter");
  EXPECT_NE(static_cast<void*>(a), static_cast<void*>(g));
  EXPECT_NE(static_cast<void*>(g), static_cast<void*>(h));
}

TEST(MetricsRegistryTest, CounterExactUnderConcurrentHammering) {
  Counter* counter = Registry::Instance().GetCounter("test/hammer_counter");
  counter->Reset();
  constexpr size_t kIters = 200000;
  util::ParallelForChunks(util::ComputePool(), 0, kIters, 1000,
                          [&](size_t, size_t lo, size_t hi) {
                            for (size_t i = lo; i < hi; ++i) {
                              counter->Increment();
                            }
                          });
  EXPECT_EQ(counter->Value(), kIters);
}

TEST(MetricsRegistryTest, GaugeNetsToZeroUnderConcurrentAddSub) {
  Gauge* gauge = Registry::Instance().GetGauge("test/hammer_gauge");
  gauge->Reset();
  constexpr size_t kIters = 100000;
  util::ParallelForChunks(util::ComputePool(), 0, kIters, 500,
                          [&](size_t, size_t lo, size_t hi) {
                            for (size_t i = lo; i < hi; ++i) {
                              gauge->Add(3);
                              gauge->Add(-3);
                            }
                          });
  EXPECT_EQ(gauge->Value(), 0);
  gauge->Set(-42);
  EXPECT_EQ(gauge->Value(), -42);
}

TEST(MetricsRegistryTest, HistogramCountExactUnderConcurrentRecords) {
  Histogram* histogram =
      Registry::Instance().GetHistogram("test/hammer_histogram");
  histogram->Reset();
  constexpr size_t kIters = 100000;
  util::ParallelForChunks(util::ComputePool(), 0, kIters, 500,
                          [&](size_t, size_t lo, size_t hi) {
                            for (size_t i = lo; i < hi; ++i) {
                              histogram->Record(i % 13);
                            }
                          });
  const HistogramData data = histogram->Snapshot();
  EXPECT_EQ(data.count, kIters);
  EXPECT_EQ(data.max, 12u);
  // Every sample landed in exactly one bucket.
  uint64_t total = 0;
  for (const uint64_t bucket : data.buckets) total += bucket;
  EXPECT_EQ(total, kIters);
}

TEST(HistogramBucketTest, ExponentialBoundaries) {
  // Bucket 0 holds the value 0; bucket i holds [2^(i-1), 2^i).
  EXPECT_EQ(HistogramBucketIndex(0), 0u);
  EXPECT_EQ(HistogramBucketIndex(1), 1u);
  EXPECT_EQ(HistogramBucketIndex(2), 2u);
  EXPECT_EQ(HistogramBucketIndex(3), 2u);
  EXPECT_EQ(HistogramBucketIndex(4), 3u);
  EXPECT_EQ(HistogramBucketIndex(7), 3u);
  EXPECT_EQ(HistogramBucketIndex(8), 4u);
  EXPECT_EQ(HistogramBucketIndex(~uint64_t{0}), 64u);

  for (size_t bucket = 1; bucket < kNumHistogramBuckets; ++bucket) {
    // The stated bounds are tight: both land in the bucket, and the
    // neighbours land outside.
    EXPECT_EQ(HistogramBucketIndex(HistogramBucketLowerBound(bucket)), bucket);
    EXPECT_EQ(HistogramBucketIndex(HistogramBucketUpperBound(bucket)), bucket);
    EXPECT_EQ(HistogramBucketIndex(HistogramBucketLowerBound(bucket) - 1),
              bucket - 1);
  }
  EXPECT_EQ(HistogramBucketLowerBound(0), 0u);
  EXPECT_EQ(HistogramBucketUpperBound(0), 0u);
  EXPECT_EQ(HistogramBucketLowerBound(5), 16u);
  EXPECT_EQ(HistogramBucketUpperBound(5), 31u);
}

TEST(HistogramDataTest, QuantilesAreOrderedAndNeverExceedMax) {
  // The staleness shape that used to print p95 = 15 with max = 8: every
  // sample in the [8, 16) bucket, whose upper bound is 15.
  HistogramData h;
  for (int i = 0; i < 20; ++i) h.Record(8);
  EXPECT_EQ(h.Percentile(0.5), 8u);
  EXPECT_EQ(h.Percentile(0.95), 8u);
  // Mixed magnitudes: quantiles stay ordered and bounded by max.
  HistogramData mixed;
  for (uint64_t v : {1u, 3u, 5u, 9u, 17u, 33u, 65u, 100u, 100u, 130u}) {
    mixed.Record(v);
  }
  const uint64_t p50 = mixed.Percentile(0.5);
  const uint64_t p95 = mixed.Percentile(0.95);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, mixed.max);
  EXPECT_EQ(mixed.Percentile(1.0), 130u);
  EXPECT_NE(mixed.Summary().find("p95=130 max=130"), std::string::npos)
      << mixed.Summary();
}

TEST(HistogramDataTest, RecordMergeAndStats) {
  HistogramData h;
  h.Record(0);
  h.Record(1);
  h.Record(5);
  h.Record(100);
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.sum, 106u);
  EXPECT_EQ(h.max, 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 106.0 / 4.0);
  EXPECT_EQ(h.buckets[0], 1u);  // value 0
  EXPECT_EQ(h.buckets[1], 1u);  // value 1
  EXPECT_EQ(h.buckets[3], 1u);  // value 5 in [4, 8)
  EXPECT_EQ(h.buckets[7], 1u);  // value 100 in [64, 128)

  // Percentiles report the inclusive upper bound of the holding bucket,
  // clamped to the largest recorded value.
  EXPECT_EQ(h.Percentile(0.25), 0u);
  EXPECT_EQ(h.Percentile(0.5), 1u);
  EXPECT_EQ(h.Percentile(1.0), 100u);

  HistogramData other;
  other.Record(200);
  h.Merge(other);
  EXPECT_EQ(h.count, 5u);
  EXPECT_EQ(h.max, 200u);

  const std::string summary = h.Summary();
  EXPECT_NE(summary.find("count=5"), std::string::npos);
  const std::string json = h.ToJson();
  EXPECT_NE(json.find("\"count\":5"), std::string::npos);
  EXPECT_NE(json.find("\"max\":200"), std::string::npos);
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndSerializes) {
  Registry& registry = Registry::Instance();
  registry.GetCounter("test/json_b")->Reset();
  registry.GetCounter("test/json_a")->Increment(5);
  registry.GetGauge("test/json_gauge")->Set(-7);
  registry.GetHistogram("test/json_histogram")->Record(3);

  const MetricsSnapshot snapshot = registry.Snapshot();
  for (size_t i = 1; i < snapshot.counters.size(); ++i) {
    EXPECT_LT(snapshot.counters[i - 1].first, snapshot.counters[i].first);
  }
  const std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"test/json_a\":5"), std::string::npos);
  EXPECT_NE(json.find("\"test/json_gauge\":-7"), std::string::npos);
  EXPECT_NE(json.find("\"test/json_histogram\":{\"count\":"),
            std::string::npos);
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);

  registry.GetCounter("test/json_a")->Reset();
}

}  // namespace
}  // namespace angelptm::obs
