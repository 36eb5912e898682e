#include <unistd.h>

#include <chrono>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mem/copy_engine.h"
#include "mem/hierarchical_memory.h"
#include "mem/ssd_tier.h"
#include "util/fault_injector.h"

namespace angelptm::mem {
namespace {

constexpr size_t kFrame = 4096;

/// Fault-injected error-path coverage for the memory hierarchy: every test
/// arms a failpoint, drives the normal API, and asserts the error either
/// gets absorbed (retry policy) or propagates losslessly to the caller.
class MemFaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { util::FaultInjector::Instance().Reset(); }
  void TearDown() override { util::FaultInjector::Instance().Reset(); }

  static util::FaultInjector& fi() { return util::FaultInjector::Instance(); }

  static void ArmPermanent(const char* site) {
    util::FaultRule rule;
    rule.permanent = true;
    fi().Arm(site, rule);
  }

  static void ArmNth(const char* site, int64_t nth) {
    util::FaultRule rule;
    rule.nth_call = nth;
    fi().Arm(site, rule);
  }

  static std::string TempPath(const char* tag) {
    return std::string("/tmp/angelptm_fault_test_") + tag + "_" +
           std::to_string(::getpid()) + ".bin";
  }

  static SsdTier::Options TierOptions(const char* tag, uint64_t frames) {
    SsdTier::Options o;
    o.path = TempPath(tag);
    o.capacity_bytes = frames * kFrame;
    o.frame_bytes = kFrame;
    o.retry.base_backoff_us = 1;  // Keep test retries fast.
    o.retry.max_backoff_us = 10;
    return o;
  }

  static HierarchicalMemoryOptions MemoryOptions(const char* tag) {
    HierarchicalMemoryOptions o;
    o.page_bytes = kFrame;
    o.gpu_capacity_bytes = 8 * kFrame;
    o.cpu_capacity_bytes = 16 * kFrame;
    o.ssd_capacity_bytes = 8 * kFrame;
    o.ssd_path = TempPath(tag);
    o.ssd_retry.base_backoff_us = 1;
    o.ssd_retry.max_backoff_us = 10;
    return o;
  }
};

TEST_F(MemFaultInjectionTest, TransientWriteFaultAbsorbedByRetry) {
  SsdTier tier;
  ASSERT_TRUE(tier.Open(TierOptions("wtrans", 4)).ok());
  auto offset = tier.AcquireFrame();
  ASSERT_TRUE(offset.ok());
  ArmNth("ssd.pwrite", 1);  // First attempt fails; the retry succeeds.

  std::vector<std::byte> data(kFrame, std::byte{0x5A});
  ASSERT_TRUE(tier.WriteFrame(*offset, data.data(), kFrame).ok());
  EXPECT_EQ(tier.Snapshot().io_retries, 1u);
  EXPECT_EQ(fi().fires("ssd.pwrite"), 1u);
  EXPECT_EQ(fi().calls("ssd.pwrite"), 2u);  // Failed attempt + retry.

  // The data written by the successful retry is intact.
  std::vector<std::byte> back(kFrame);
  ASSERT_TRUE(tier.ReadFrame(*offset, back.data(), kFrame).ok());
  EXPECT_EQ(back[kFrame - 1], std::byte{0x5A});
  // Failed attempts don't count toward bytes written.
  EXPECT_EQ(tier.Snapshot().bytes_written, kFrame);
}

TEST_F(MemFaultInjectionTest, TransientReadFaultAbsorbedByRetry) {
  SsdTier tier;
  ASSERT_TRUE(tier.Open(TierOptions("rtrans", 4)).ok());
  auto offset = tier.AcquireFrame();
  ASSERT_TRUE(offset.ok());
  std::vector<std::byte> data(kFrame, std::byte{0x77});
  ASSERT_TRUE(tier.WriteFrame(*offset, data.data(), kFrame).ok());

  ArmNth("ssd.pread", 1);
  std::vector<std::byte> back(kFrame);
  ASSERT_TRUE(tier.ReadFrame(*offset, back.data(), kFrame).ok());
  EXPECT_EQ(back[0], std::byte{0x77});
  EXPECT_EQ(tier.Snapshot().io_retries, 1u);
}

TEST_F(MemFaultInjectionTest, PermanentWriteFaultExhaustsRetries) {
  SsdTier tier;
  auto options = TierOptions("wperm", 4);
  options.retry.max_attempts = 3;
  ASSERT_TRUE(tier.Open(options).ok());
  auto offset = tier.AcquireFrame();
  ASSERT_TRUE(offset.ok());
  ArmPermanent("ssd.pwrite");

  std::vector<std::byte> data(kFrame, std::byte{1});
  EXPECT_TRUE(tier.WriteFrame(*offset, data.data(), kFrame).IsIoError());
  EXPECT_EQ(fi().calls("ssd.pwrite"), 3u);       // Every attempt was made...
  const SsdTier::Stats stats = tier.Snapshot();
  EXPECT_EQ(stats.io_retries, 2u);               // ...after 2 backoffs.
  EXPECT_EQ(stats.bytes_written, 0u);
}

TEST_F(MemFaultInjectionTest, SingleAttemptPolicySurfacesImmediately) {
  SsdTier tier;
  auto options = TierOptions("noretry", 4);
  options.retry.max_attempts = 1;
  ASSERT_TRUE(tier.Open(options).ok());
  auto offset = tier.AcquireFrame();
  ASSERT_TRUE(offset.ok());
  ArmNth("ssd.pread", 1);

  std::vector<std::byte> back(kFrame);
  EXPECT_TRUE(tier.ReadFrame(*offset, back.data(), kFrame).IsIoError());
  EXPECT_EQ(fi().calls("ssd.pread"), 1u);
  EXPECT_EQ(tier.Snapshot().io_retries, 0u);
}

TEST_F(MemFaultInjectionTest, NonIoErrorsAreNotRetried) {
  SsdTier tier;
  ASSERT_TRUE(tier.Open(TierOptions("nonio", 4)).ok());
  auto offset = tier.AcquireFrame();
  ASSERT_TRUE(offset.ok());
  util::FaultRule rule;
  rule.permanent = true;
  rule.code = util::StatusCode::kCancelled;
  fi().Arm("ssd.pwrite", rule);

  std::vector<std::byte> data(kFrame, std::byte{1});
  EXPECT_EQ(tier.WriteFrame(*offset, data.data(), kFrame).code(),
            util::StatusCode::kCancelled);
  EXPECT_EQ(fi().calls("ssd.pwrite"), 1u);  // No retry for non-IoError.
}

TEST_F(MemFaultInjectionTest, FailedStageOutReleasesSsdFrame) {
  HierarchicalMemory memory(MemoryOptions("stageout"));
  auto page = memory.CreatePage(DeviceKind::kCpu);
  ASSERT_TRUE(page.ok());
  std::memset((*page)->data_ptr(), 0x42, kFrame);
  const size_t free_before = memory.ssd()->free_frames();

  ArmPermanent("ssd.pwrite");
  EXPECT_TRUE(memory.MovePageSync(*page, DeviceKind::kSsd).IsIoError());
  // The page stays intact on its source tier and the acquired SSD frame
  // was returned to the free list — no leak on the error path.
  EXPECT_EQ((*page)->device(), DeviceKind::kCpu);
  EXPECT_EQ((*page)->data_ptr()[0], std::byte{0x42});
  EXPECT_EQ(memory.ssd()->free_frames(), free_before);

  // The tier recovers once the fault clears.
  fi().Reset();
  EXPECT_TRUE(memory.MovePageSync(*page, DeviceKind::kSsd).ok());
  EXPECT_EQ((*page)->device(), DeviceKind::kSsd);
}

TEST_F(MemFaultInjectionTest, FailedStageInKeepsPageOnSsd) {
  HierarchicalMemory memory(MemoryOptions("stagein"));
  auto page = memory.CreatePage(DeviceKind::kCpu);
  ASSERT_TRUE(page.ok());
  std::memset((*page)->data_ptr(), 0x24, kFrame);
  ASSERT_TRUE(memory.MovePageSync(*page, DeviceKind::kSsd).ok());
  const uint64_t cpu_used_before = memory.used_bytes(DeviceKind::kCpu);

  ArmPermanent("ssd.pread");
  EXPECT_TRUE(memory.MovePageSync(*page, DeviceKind::kCpu).IsIoError());
  EXPECT_EQ((*page)->device(), DeviceKind::kSsd);
  // The CPU frame acquired for the failed stage-in was released.
  EXPECT_EQ(memory.used_bytes(DeviceKind::kCpu), cpu_used_before);

  fi().Reset();
  ASSERT_TRUE(memory.MovePageSync(*page, DeviceKind::kCpu).ok());
  EXPECT_EQ((*page)->data_ptr()[0], std::byte{0x24});
}

TEST_F(MemFaultInjectionTest, MovePageFailpointFiresBeforeAnyWork) {
  HierarchicalMemory memory(MemoryOptions("movefp"));
  auto page = memory.CreatePage(DeviceKind::kCpu);
  ASSERT_TRUE(page.ok());
  util::FaultRule rule;
  rule.permanent = true;
  rule.code = util::StatusCode::kInternal;
  fi().Arm("hmem.move_page", rule);
  EXPECT_EQ(memory.MovePageSync(*page, DeviceKind::kGpu).code(),
            util::StatusCode::kInternal);
  EXPECT_EQ((*page)->device(), DeviceKind::kCpu);
  EXPECT_EQ(memory.move_stats(DeviceKind::kCpu, DeviceKind::kGpu).moves, 0u);
}

TEST_F(MemFaultInjectionTest, CopyEngineMoveFailureSurfacesThroughFuture) {
  HierarchicalMemory memory(MemoryOptions("cemove"));
  CopyEngine engine(&memory, 2);
  auto page = memory.CreatePage(DeviceKind::kCpu);
  ASSERT_TRUE(page.ok());
  ArmPermanent("copy_engine.move");

  auto future = engine.MoveAsync(*page, DeviceKind::kGpu);
  const util::Status status = future.get();
  EXPECT_TRUE(status.IsIoError());
  EXPECT_EQ((*page)->device(), DeviceKind::kCpu);
  EXPECT_EQ(engine.Snapshot().moves_failed, 1u);
  EXPECT_EQ(engine.Snapshot().moves_completed, 0u);

  fi().Reset();
  EXPECT_TRUE(engine.MoveAsync(*page, DeviceKind::kGpu).get().ok());
  EXPECT_EQ(engine.Snapshot().moves_completed, 1u);
}

TEST_F(MemFaultInjectionTest, AsyncBackendRetriesTransientFaultPerAttempt) {
  SsdTier tier;
  auto options = TierOptions("asynctrans", 4);
  options.io_workers = 2;
  ASSERT_TRUE(tier.Open(options).ok());
  auto offset = tier.AcquireFrame();
  ASSERT_TRUE(offset.ok());
  ArmNth("ssd.pwrite", 1);  // First attempt fails inside the queue worker.

  std::vector<std::byte> data(kFrame, std::byte{0x6B});
  auto future = tier.WriteFrameAsync(*offset, data.data(), kFrame);
  ASSERT_TRUE(future.get().ok());
  // The failpoint fired per *attempt* in the worker: failed attempt + retry,
  // exactly like the synchronous backend.
  EXPECT_EQ(fi().calls("ssd.pwrite"), 2u);
  EXPECT_EQ(fi().fires("ssd.pwrite"), 1u);
  EXPECT_EQ(tier.Snapshot().io_retries, 1u);

  std::vector<std::byte> back(kFrame);
  ASSERT_TRUE(tier.ReadFrame(*offset, back.data(), kFrame).ok());
  EXPECT_EQ(back[0], std::byte{0x6B});
}

TEST_F(MemFaultInjectionTest, AsyncBackendSurfacesPermanentFaultInFuture) {
  SsdTier tier;
  auto options = TierOptions("asyncperm", 4);
  options.io_workers = 1;
  options.retry.max_attempts = 3;
  ASSERT_TRUE(tier.Open(options).ok());
  auto offset = tier.AcquireFrame();
  ASSERT_TRUE(offset.ok());
  std::vector<std::byte> data(kFrame, std::byte{1});
  ASSERT_TRUE(tier.WriteFrame(*offset, data.data(), kFrame).ok());

  ArmPermanent("ssd.pread");
  auto future = tier.ReadFrameAsync(*offset, data.data(), kFrame);
  EXPECT_TRUE(future.get().IsIoError());
  EXPECT_EQ(fi().calls("ssd.pread"), 3u);  // All attempts, then propagate.
  EXPECT_EQ(tier.Snapshot().io_retries, 2u);
  EXPECT_EQ(tier.Snapshot().bytes_read, 0u);
}

TEST_F(MemFaultInjectionTest, CoalescedBatchFailsEveryRequestItCarried) {
  SsdTier tier;
  auto options = TierOptions("batchfail", 8);
  options.io_workers = 1;
  options.io_op_latency_us = 10000;  // Stall the worker so requests coalesce.
  options.retry.max_attempts = 1;
  ASSERT_TRUE(tier.Open(options).ok());
  ArmPermanent("ssd.pwrite");

  std::vector<std::vector<std::byte>> bufs;
  std::vector<std::future<util::Status>> futures;
  for (int i = 0; i < 6; ++i) {
    auto offset = tier.AcquireFrame();
    ASSERT_TRUE(offset.ok());
    bufs.emplace_back(kFrame, std::byte(i));
    futures.push_back(
        tier.WriteFrameAsync(*offset, bufs.back().data(), kFrame));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().IsIoError());
  const SsdTier::Stats stats = tier.Snapshot();
  // One failpoint evaluation per batch attempt, and at least one batch
  // carried several coalesced requests.
  EXPECT_EQ(fi().calls("ssd.pwrite"), stats.io_batches);
  EXPECT_LT(stats.io_batches, 6u);
  EXPECT_EQ(stats.bytes_written, 0u);
}

// A permanent fault partway through a batched SSD crossing: the first
// attempt succeeds, every later one fails. With at most two requests per
// syscall a six-page batch needs at least three, so some pages commit and
// some fail on both backends.
struct BatchOutcome {
  size_t on_target = 0;
  size_t on_source = 0;
};

class BatchedMoveFaultTest : public MemFaultInjectionTest {
 protected:
  static constexpr size_t kPages = 6;

  static HierarchicalMemoryOptions BatchOptions(const char* tag,
                                                size_t io_workers) {
    HierarchicalMemoryOptions o = MemoryOptions(tag);
    o.ssd_io_workers = io_workers;
    o.ssd_io_coalesce = 2;
    return o;
  }

  static void ArmAfterFirstAttempt(const char* site) {
    util::FaultRule rule;
    rule.permanent = true;
    rule.after_calls = 1;
    fi().Arm(site, rule);
  }

  static std::byte Fill(size_t page) { return std::byte(0x30 + page); }

  static std::vector<Page*> MakePages(HierarchicalMemory* memory) {
    std::vector<Page*> pages;
    for (size_t i = 0; i < kPages; ++i) {
      auto page = memory->CreatePage(DeviceKind::kCpu);
      EXPECT_TRUE(page.ok());
      std::memset((*page)->data_ptr(), int(Fill(i)), kFrame);
      pages.push_back(*page);
    }
    return pages;
  }

  /// Every page is either on `target` or intact on `source`; a page left
  /// in memory still holds its bytes.
  static BatchOutcome Classify(const std::vector<Page*>& pages,
                               DeviceKind source, DeviceKind target) {
    BatchOutcome outcome;
    for (size_t i = 0; i < pages.size(); ++i) {
      const DeviceKind device = pages[i]->device();
      EXPECT_TRUE(device == source || device == target) << "page " << i;
      (device == target ? outcome.on_target : outcome.on_source) += 1;
      if (device == DeviceKind::kCpu) {
        for (size_t b = 0; b < kFrame; b += 509) {
          EXPECT_EQ(pages[i]->data_ptr()[b], Fill(i)) << "page " << i;
        }
      }
    }
    return outcome;
  }

  /// No request outlives the call: the failpoint and the byte counters
  /// stay still afterwards.
  static void ExpectNothingInFlight(HierarchicalMemory* memory,
                                    const char* site) {
    const uint64_t calls = fi().calls(site);
    const SsdTier::Stats before = memory->ssd()->Snapshot();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const SsdTier::Stats after = memory->ssd()->Snapshot();
    EXPECT_EQ(fi().calls(site), calls);
    EXPECT_EQ(after.bytes_read, before.bytes_read);
    EXPECT_EQ(after.bytes_written, before.bytes_written);
    EXPECT_EQ(after.io_batches, before.io_batches);
  }

  /// Moves everything back to the CPU with faults cleared and checks that
  /// every byte survived and every frame came home.
  static void RecoverAndVerify(HierarchicalMemory* memory,
                               const std::vector<Page*>& pages,
                               size_t ssd_free, uint64_t cpu_used) {
    fi().Reset();
    ASSERT_TRUE(memory->MovePages(pages, DeviceKind::kCpu).ok());
    const BatchOutcome outcome =
        Classify(pages, DeviceKind::kSsd, DeviceKind::kCpu);
    EXPECT_EQ(outcome.on_target, kPages);
    EXPECT_EQ(memory->ssd()->free_frames(), ssd_free);
    EXPECT_EQ(memory->used_bytes(DeviceKind::kCpu), cpu_used);
  }
};

TEST_F(BatchedMoveFaultTest, PermanentWriteFaultMidBatchCommitsOrKeepsEachPage) {
  for (const size_t workers : {size_t{0}, size_t{4}}) {
    SCOPED_TRACE("io_workers=" + std::to_string(workers));
    fi().Reset();
    HierarchicalMemory memory(BatchOptions("batchout", workers));
    const std::vector<Page*> pages = MakePages(&memory);
    const size_t ssd_free = memory.ssd()->free_frames();
    const uint64_t cpu_used = memory.used_bytes(DeviceKind::kCpu);

    ArmAfterFirstAttempt("ssd.pwrite");
    EXPECT_TRUE(memory.MovePages(pages, DeviceKind::kSsd).IsIoError());
    ExpectNothingInFlight(&memory, "ssd.pwrite");
    const BatchOutcome outcome =
        Classify(pages, DeviceKind::kCpu, DeviceKind::kSsd);
    EXPECT_GE(outcome.on_target, 1u);
    EXPECT_GE(outcome.on_source, 1u);
    // Frames of failed pages went back; only committed pages hold any.
    EXPECT_EQ(memory.ssd()->free_frames(), ssd_free - outcome.on_target);
    EXPECT_EQ(memory.used_bytes(DeviceKind::kCpu),
              cpu_used - outcome.on_target * kFrame);

    RecoverAndVerify(&memory, pages, ssd_free, cpu_used);
  }
}

TEST_F(BatchedMoveFaultTest, PermanentReadFaultMidBatchCommitsOrKeepsEachPage) {
  for (const size_t workers : {size_t{0}, size_t{4}}) {
    SCOPED_TRACE("io_workers=" + std::to_string(workers));
    fi().Reset();
    HierarchicalMemory memory(BatchOptions("batchin", workers));
    const std::vector<Page*> pages = MakePages(&memory);
    const size_t ssd_free = memory.ssd()->free_frames();
    const uint64_t cpu_used = memory.used_bytes(DeviceKind::kCpu);
    ASSERT_TRUE(memory.MovePages(pages, DeviceKind::kSsd).ok());
    const size_t ssd_free_staged = memory.ssd()->free_frames();

    ArmAfterFirstAttempt("ssd.pread");
    EXPECT_TRUE(memory.MovePages(pages, DeviceKind::kCpu).IsIoError());
    ExpectNothingInFlight(&memory, "ssd.pread");
    const BatchOutcome outcome =
        Classify(pages, DeviceKind::kSsd, DeviceKind::kCpu);
    EXPECT_GE(outcome.on_target, 1u);
    EXPECT_GE(outcome.on_source, 1u);
    // CPU frames acquired for failed pages were released.
    EXPECT_EQ(memory.used_bytes(DeviceKind::kCpu),
              outcome.on_target * kFrame);
    EXPECT_EQ(memory.ssd()->free_frames(),
              ssd_free_staged + outcome.on_target);

    RecoverAndVerify(&memory, pages, ssd_free, cpu_used);
  }
}

TEST_F(BatchedMoveFaultTest, MovePageFailpointFiresPerPageBeforeAnyIo) {
  HierarchicalMemory memory(BatchOptions("batchfp", 4));
  const std::vector<Page*> pages = MakePages(&memory);
  const size_t ssd_free = memory.ssd()->free_frames();
  util::FaultRule rule;
  rule.nth_call = 3;
  rule.code = util::StatusCode::kInternal;
  fi().Arm("hmem.move_page", rule);
  EXPECT_EQ(memory.MovePages(pages, DeviceKind::kSsd).code(),
            util::StatusCode::kInternal);
  EXPECT_EQ(fi().calls("hmem.move_page"), 3u);
  EXPECT_EQ(fi().calls("ssd.pwrite"), 0u);
  EXPECT_EQ(Classify(pages, DeviceKind::kCpu, DeviceKind::kSsd).on_source,
            kPages);
  EXPECT_EQ(memory.ssd()->free_frames(), ssd_free);
}

TEST_F(MemFaultInjectionTest, PageMutexMapIsGarbageCollected) {
  HierarchicalMemory memory(MemoryOptions("mutexgc"));
  CopyEngine engine(&memory, 2);
  // Move 200 distinct pages through the engine, one at a time. Without GC
  // the per-page mutex map would hold all 200 entries forever.
  for (int i = 0; i < 200; ++i) {
    auto page = memory.CreatePage(DeviceKind::kCpu);
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE(engine.MoveAsync(*page, DeviceKind::kGpu).get().ok());
    ASSERT_TRUE(engine.MoveAsync(*page, DeviceKind::kCpu).get().ok());
    ASSERT_TRUE(memory.DestroyPage(*page, /*force=*/true).ok());
  }
  engine.Drain();
  const CopyEngine::Stats stats = engine.Snapshot();
  EXPECT_EQ(stats.moves_completed, 400u);
  EXPECT_EQ(stats.queue_depth, 0u);
  // Entries with no in-flight move were swept; the map stays bounded well
  // below the 200 distinct page ids it has seen.
  EXPECT_LT(stats.tracked_page_mutexes, 100u);
}

}  // namespace
}  // namespace angelptm::mem
