#include "mem/prefetch_planner.h"

#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mem/copy_engine.h"
#include "mem/hierarchical_memory.h"
#include "mem/read_ahead.h"

namespace angelptm::mem {
namespace {

constexpr size_t kFrame = 4096;

/// The layer visit order of one training step: forward 0..n-1, then backward
/// n-1..0 — the sawtooth every test schedule here uses.
std::vector<uint64_t> SawtoothOrder(uint64_t layers) {
  std::vector<uint64_t> order;
  for (uint64_t l = 0; l < layers; ++l) order.push_back(l);
  for (uint64_t l = layers; l > 0; --l) order.push_back(l - 1);
  return order;
}

PrefetchPlanner TrainedPlanner(const std::vector<uint64_t>& order) {
  PrefetchPlanner planner;
  for (const uint64_t key : order) planner.RecordAccess(key);
  planner.FinishWarmup();
  return planner;
}

TEST(PrefetchPlannerTest, LearnedOrderMatchesRecordedTrace) {
  const std::vector<uint64_t> order = SawtoothOrder(6);
  const PrefetchPlanner planner = TrainedPlanner(order);
  EXPECT_TRUE(planner.trained());
  EXPECT_EQ(planner.learned_order(), order);
  EXPECT_EQ(planner.Snapshot().order_length, order.size());
  EXPECT_EQ(planner.Snapshot().recorded_accesses, order.size());
}

TEST(PrefetchPlannerTest, RecordingStopsAfterWarmup) {
  PrefetchPlanner planner = TrainedPlanner({0, 1, 2});
  planner.RecordAccess(99);  // Steady state: must not grow the order.
  EXPECT_EQ(planner.learned_order().size(), 3u);
}

TEST(PrefetchPlannerTest, UntrainedPlannerAnswersConservatively) {
  PrefetchPlanner planner;
  EXPECT_FALSE(planner.trained());
  EXPECT_EQ(planner.NextUseDistance(0), PrefetchPlanner::kNeverUsed);
  EXPECT_TRUE(planner.LookaheadKeys(4).empty());
  planner.OnUse(0);  // Must be a harmless no-op before training.
  EXPECT_EQ(planner.Snapshot().mispredicts, 0u);
}

TEST(PrefetchPlannerTest, RepeatingScheduleIsFullyPredicted) {
  const std::vector<uint64_t> order = SawtoothOrder(5);
  PrefetchPlanner planner = TrainedPlanner(order);
  // Three steady-state steps that replay the learned order exactly: every
  // OnUse must be a predicted hit, none a mispredict.
  for (int step = 0; step < 3; ++step) {
    planner.BeginStep();
    for (const uint64_t key : order) planner.OnUse(key);
  }
  const PrefetchPlanner::Stats stats = planner.Snapshot();
  EXPECT_EQ(stats.predicted_hits, 3 * order.size());
  EXPECT_EQ(stats.mispredicts, 0u);
}

TEST(PrefetchPlannerTest, MispredictResyncsWithinTheStep) {
  PrefetchPlanner planner = TrainedPlanner({0, 1, 2, 3});
  planner.BeginStep();
  planner.OnUse(0);
  planner.OnUse(2);  // Layer 1 skipped: one mispredict...
  planner.OnUse(3);  // ...but the cursor resynced, so this is a hit again.
  const PrefetchPlanner::Stats stats = planner.Snapshot();
  EXPECT_EQ(stats.mispredicts, 1u);
  EXPECT_EQ(stats.predicted_hits, 2u);
}

TEST(PrefetchPlannerTest, NextUseDistanceWrapsAroundThePeriod) {
  // Order 0 1 2 1 0: distances are relative to the cursor and wrap.
  PrefetchPlanner planner = TrainedPlanner({0, 1, 2, 1, 0});
  planner.BeginStep();
  EXPECT_EQ(planner.NextUseDistance(0), 0u);
  EXPECT_EQ(planner.NextUseDistance(1), 1u);
  EXPECT_EQ(planner.NextUseDistance(2), 2u);
  planner.OnUse(0);
  planner.OnUse(1);
  // Cursor at position 2: key 0's only remaining use is position 4.
  EXPECT_EQ(planner.NextUseDistance(0), 2u);
  planner.OnUse(2);
  planner.OnUse(1);
  planner.OnUse(0);
  // Past the end of the period: distances wrap into the next step.
  EXPECT_EQ(planner.NextUseDistance(0), 0u);
  EXPECT_EQ(planner.NextUseDistance(2), 2u);
  EXPECT_EQ(planner.NextUseDistance(7), PrefetchPlanner::kNeverUsed);
}

TEST(PrefetchPlannerTest, LookaheadListsDistinctUpcomingKeys) {
  PrefetchPlanner planner = TrainedPlanner({0, 1, 2, 2, 1, 0});
  planner.BeginStep();
  planner.OnUse(0);
  // Upcoming: 1 2 2 1 0 -> distinct in visit order.
  EXPECT_EQ(planner.LookaheadKeys(8), (std::vector<uint64_t>{1, 2, 0}));
  EXPECT_EQ(planner.LookaheadKeys(2), (std::vector<uint64_t>{1, 2}));
}

TEST(PrefetchPlannerTest, EvictionNeverPicksTheImmediatelyNextKey) {
  const std::vector<uint64_t> order = SawtoothOrder(6);
  PrefetchPlanner planner = TrainedPlanner(order);
  planner.BeginStep();
  // Walk a full step; at every position, the immediately-next key must not
  // be the victim as long as any other candidate exists.
  std::vector<uint64_t> all = {0, 1, 2, 3, 4, 5};
  for (const uint64_t key : order) {
    planner.OnUse(key);
    const size_t cursor = planner.cursor();
    if (cursor >= order.size()) break;
    const uint64_t next_key = planner.learned_order()[cursor];
    EXPECT_NE(planner.PickEvictionVictim(all), next_key)
        << "evicted the immediately-next key at cursor " << cursor;
    // Even from a two-element candidate set containing the next key.
    const uint64_t other = (next_key + 1) % 6;
    EXPECT_EQ(planner.PickEvictionVictim({next_key, other}), other);
  }
  // Sole candidate: no choice but the next key.
  EXPECT_EQ(planner.PickEvictionVictim({order[planner.cursor() % order.size()]}),
            order[planner.cursor() % order.size()]);
  EXPECT_EQ(planner.PickEvictionVictim({}), PrefetchPlanner::kNoVictim);
}

TEST(PrefetchPlannerTest, RankingIsFarthestFirst) {
  PrefetchPlanner planner = TrainedPlanner({0, 1, 2, 3});
  planner.BeginStep();
  planner.OnUse(0);  // Upcoming: 1 (d=0), 2 (d=1), 3 (d=2), 0 (wraps, d=3).
  EXPECT_EQ(planner.RankEvictionCandidates({1, 2, 3, 0}),
            (std::vector<uint64_t>{0, 3, 2, 1}));
  // Keys outside the learned order are free to evict: ranked first.
  EXPECT_EQ(planner.RankEvictionCandidates({1, 42}).front(), 42u);
}

/// Integration harness: pages on an SSD-backed working set, the planner
/// feeding the read-ahead executor through the copy engine and the async
/// submission-queue SSD backend.
class ReadAheadTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kPages = 12;

  static HierarchicalMemoryOptions MemoryOptions(const char* tag,
                                                 uint64_t cpu_frames) {
    HierarchicalMemoryOptions o;
    o.page_bytes = kFrame;
    o.gpu_capacity_bytes = 2 * kFrame;
    o.cpu_capacity_bytes = cpu_frames * kFrame;
    o.ssd_capacity_bytes = 2 * kPages * kFrame;
    o.ssd_path = std::string("/tmp/angelptm_readahead_") + tag + "_" +
                 std::to_string(::getpid()) + ".bin";
    return o;
  }

  /// Creates kPages pages, fills page i with byte i, stages all to SSD.
  std::vector<Page*> MakeSsdWorkingSet(HierarchicalMemory* memory) {
    std::vector<Page*> pages;
    for (uint64_t i = 0; i < kPages; ++i) {
      auto page = memory->CreatePage(DeviceKind::kCpu);
      EXPECT_TRUE(page.ok());
      std::memset((*page)->data_ptr(), static_cast<int>(i + 1), kFrame);
      EXPECT_TRUE(memory->MovePageSync(*page, DeviceKind::kSsd).ok());
      pages.push_back(*page);
    }
    return pages;
  }
};

TEST_F(ReadAheadTest, ReadAheadFullyCoversRepeatingScheduleAfterWarmup) {
  // CPU tier large enough for the whole set: no evictions interfere, so
  // coverage (and eventually the hit rate) must reach 100% deterministically.
  HierarchicalMemory memory(MemoryOptions("cover", kPages + 4));
  CopyEngine engine(&memory, 2);
  PrefetchPlanner planner;
  ReadAheadExecutor::Options options;
  options.window = 4;
  options.max_resident = kPages + 2;
  ReadAheadExecutor executor(&memory, &engine, &planner, options);

  const std::vector<Page*> pages = MakeSsdWorkingSet(&memory);
  for (uint64_t i = 0; i < kPages; ++i) executor.Bind(i, pages[i]);
  const std::vector<uint64_t> order = SawtoothOrder(kPages);

  // Warmup step: record the trace while fetching on demand.
  for (const uint64_t key : order) {
    planner.RecordAccess(key);
    auto page = executor.Acquire(key);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ((*page)->data_ptr()[0], std::byte(key + 1));
  }
  planner.FinishWarmup();

  // Two steady-state steps: every use must have its fetch issued (or be
  // resident) before the access — 100% read-ahead coverage.
  const uint64_t covered_before = executor.Snapshot().covered;
  for (int step = 0; step < 2; ++step) {
    executor.BeginStep();
    for (const uint64_t key : order) {
      auto page = executor.Acquire(key);
      ASSERT_TRUE(page.ok());
      EXPECT_EQ((*page)->data_ptr()[0], std::byte(key + 1));
    }
  }
  const ReadAheadExecutor::Stats stats = executor.Snapshot();
  EXPECT_EQ(stats.covered - covered_before, 2 * order.size());
  EXPECT_EQ(stats.failed_moves, 0u);
  EXPECT_EQ(planner.Snapshot().mispredicts, 0u);

  // Once everything is resident, a further step is pure hits: 100% hit rate.
  const uint64_t hits_before = executor.Snapshot().hits;
  const uint64_t waits_before = executor.Snapshot().waits;
  executor.BeginStep();
  for (const uint64_t key : order) {
    ASSERT_TRUE(executor.Acquire(key).ok());
  }
  EXPECT_EQ(executor.Snapshot().hits - hits_before, order.size());
  EXPECT_EQ(executor.Snapshot().waits - waits_before, 0u);
  ASSERT_TRUE(executor.Drain().ok());
}

TEST_F(ReadAheadTest, WorkingSetLargerThanFetchTierStillRoundTrips) {
  // Only 6 CPU frames for 12 pages: the executor must evict (Belady) while
  // keeping every access correct under the async SSD backend.
  HierarchicalMemory memory(MemoryOptions("evict", 6));
  CopyEngine engine(&memory, 2);
  PrefetchPlanner planner;
  ReadAheadExecutor::Options options;
  options.window = 3;
  options.max_resident = 5;  // Headroom below the 6 CPU frames.
  ReadAheadExecutor executor(&memory, &engine, &planner, options);

  const std::vector<Page*> pages = MakeSsdWorkingSet(&memory);
  for (uint64_t i = 0; i < kPages; ++i) executor.Bind(i, pages[i]);
  const std::vector<uint64_t> order = SawtoothOrder(kPages);

  for (const uint64_t key : order) {
    planner.RecordAccess(key);
    auto page = executor.Acquire(key);
    ASSERT_TRUE(page.ok());
  }
  planner.FinishWarmup();

  for (int step = 0; step < 3; ++step) {
    executor.BeginStep();
    for (const uint64_t key : order) {
      auto page = executor.Acquire(key);
      ASSERT_TRUE(page.ok());
      // Every byte still matches after rotating through the SSD tier.
      EXPECT_EQ((*page)->data_ptr()[0], std::byte(key + 1));
      EXPECT_EQ((*page)->data_ptr()[kFrame - 1], std::byte(key + 1));
    }
  }
  ASSERT_TRUE(executor.Drain().ok());
  const ReadAheadExecutor::Stats stats = executor.Snapshot();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.covered, 0u);
  // The async submission queue actually carried the traffic.
  EXPECT_GT(memory.ssd()->Snapshot().queued_requests, 0u);
}

TEST_F(ReadAheadTest, AcquiredPageIsNeverItsOwnTopUpVictim) {
  // Sawtooth 0 1 2 3 3 2 1 0 under a binding frame budget (3 pages for a
  // 3-key window). Right after the turn, the key just acquired (3) is next
  // used at the following step's turn: the farthest next use of every
  // resident, so Acquire's own read-ahead picks it as the Belady victim
  // unless it is protected (the same happens to key 0 at each step start).
  // Draining after every Acquire lands any such write-back
  // deterministically, before the caller would touch the page.
  HierarchicalMemory memory(MemoryOptions("acquired", kPages + 4));
  CopyEngine engine(&memory, 2);
  PrefetchPlanner planner;
  ReadAheadExecutor::Options options;
  options.window = 3;
  options.max_resident = 3;
  ReadAheadExecutor executor(&memory, &engine, &planner, options);

  const std::vector<Page*> pages = MakeSsdWorkingSet(&memory);
  const uint64_t keys = 4;
  for (uint64_t i = 0; i < keys; ++i) executor.Bind(i, pages[i]);
  const std::vector<uint64_t> order = SawtoothOrder(keys);
  // Train on the order directly, so every page starts on the SSD tier.
  for (const uint64_t key : order) planner.RecordAccess(key);
  planner.FinishWarmup();

  for (int step = 0; step < 3; ++step) {
    executor.BeginStep();
    ASSERT_TRUE(executor.Drain().ok());
    for (size_t position = 0; position < order.size(); ++position) {
      const uint64_t key = order[position];
      auto page = executor.Acquire(key);
      ASSERT_TRUE(page.ok());
      ASSERT_TRUE(executor.Drain().ok());
      EXPECT_EQ((*page)->device(), DeviceKind::kCpu)
          << "step " << step << " position " << position << " key " << key;
      if ((*page)->device() == DeviceKind::kCpu) {
        EXPECT_EQ((*page)->data_ptr()[0], std::byte(key + 1));
      }
    }
  }
  // The budget did bind: read-ahead had to write pages back.
  EXPECT_GT(executor.Snapshot().evictions, 0u);
  EXPECT_EQ(executor.Snapshot().failed_moves, 0u);
}

TEST_F(ReadAheadTest, AcquireOfUnboundKeyFails) {
  HierarchicalMemory memory(MemoryOptions("unbound", 4));
  CopyEngine engine(&memory, 1);
  PrefetchPlanner planner;
  ReadAheadExecutor executor(&memory, &engine, &planner, {});
  EXPECT_TRUE(executor.Acquire(7).status().IsNotFound());
}

}  // namespace
}  // namespace angelptm::mem
