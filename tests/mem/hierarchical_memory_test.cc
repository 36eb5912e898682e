#include "mem/hierarchical_memory.h"
#include "mem/memory_report.h"

#include <unistd.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "core/allocator.h"

#include <gtest/gtest.h>

namespace angelptm::mem {
namespace {

constexpr size_t kPage = 64 * 1024;

HierarchicalMemoryOptions SmallOptions(bool with_ssd = true) {
  HierarchicalMemoryOptions o;
  o.page_bytes = kPage;
  o.gpu_capacity_bytes = 4 * kPage;
  o.cpu_capacity_bytes = 8 * kPage;
  o.ssd_capacity_bytes = with_ssd ? 16 * kPage : 0;
  o.ssd_path = "/tmp/angelptm_hm_test_" + std::to_string(::getpid()) + ".bin";
  return o;
}

TEST(HierarchicalMemoryTest, CreateAndDestroyPages) {
  HierarchicalMemory hm(SmallOptions());
  auto page = hm.CreatePage(DeviceKind::kGpu);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ((*page)->device(), DeviceKind::kGpu);
  EXPECT_NE((*page)->data_ptr(), nullptr);
  EXPECT_EQ(hm.num_live_pages(), 1u);
  EXPECT_EQ(hm.used_bytes(DeviceKind::kGpu), kPage);
  ASSERT_TRUE(hm.DestroyPage(*page).ok());
  EXPECT_EQ(hm.num_live_pages(), 0u);
  EXPECT_EQ(hm.used_bytes(DeviceKind::kGpu), 0u);
}

TEST(HierarchicalMemoryTest, CreateOnSsdWithoutTierFails) {
  HierarchicalMemory hm(SmallOptions(/*with_ssd=*/false));
  EXPECT_EQ(hm.CreatePage(DeviceKind::kSsd).status().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(HierarchicalMemoryTest, GpuExhaustionSurfacesAsResourceExhausted) {
  HierarchicalMemory hm(SmallOptions());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(hm.CreatePage(DeviceKind::kGpu).ok());
  }
  EXPECT_TRUE(hm.CreatePage(DeviceKind::kGpu).status().IsResourceExhausted());
  // CPU tier is independent.
  EXPECT_TRUE(hm.CreatePage(DeviceKind::kCpu).ok());
}

TEST(HierarchicalMemoryTest, DestroyNonEmptyPageRequiresForce) {
  HierarchicalMemory hm(SmallOptions());
  auto page = hm.CreatePage(DeviceKind::kCpu);
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE((*page)->Allocate(100, /*tensor_id=*/1).ok());
  EXPECT_EQ(hm.DestroyPage(*page).code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_TRUE(hm.DestroyPage(*page, /*force=*/true).ok());
}

TEST(HierarchicalMemoryTest, MovePreservesContentsAcrossMemoryTiers) {
  HierarchicalMemory hm(SmallOptions());
  auto page = hm.CreatePage(DeviceKind::kCpu);
  ASSERT_TRUE(page.ok());
  std::memset((*page)->data_ptr(), 0x5C, kPage);

  ASSERT_TRUE(hm.MovePageSync(*page, DeviceKind::kGpu).ok());
  EXPECT_EQ((*page)->device(), DeviceKind::kGpu);
  for (size_t i = 0; i < kPage; i += 997) {
    ASSERT_EQ((*page)->data_ptr()[i], std::byte{0x5C}) << "at " << i;
  }
  EXPECT_EQ(hm.used_bytes(DeviceKind::kCpu), 0u);
  EXPECT_EQ(hm.used_bytes(DeviceKind::kGpu), kPage);
}

TEST(HierarchicalMemoryTest, MovePreservesContentsThroughSsd) {
  HierarchicalMemory hm(SmallOptions());
  auto page = hm.CreatePage(DeviceKind::kGpu);
  ASSERT_TRUE(page.ok());
  for (size_t i = 0; i < kPage; ++i) {
    (*page)->data_ptr()[i] = std::byte(i * 7 & 0xFF);
  }
  ASSERT_TRUE(hm.MovePageSync(*page, DeviceKind::kSsd).ok());
  EXPECT_EQ((*page)->device(), DeviceKind::kSsd);
  EXPECT_EQ((*page)->data_ptr(), nullptr);
  EXPECT_EQ(hm.used_bytes(DeviceKind::kGpu), 0u);

  ASSERT_TRUE(hm.MovePageSync(*page, DeviceKind::kCpu).ok());
  EXPECT_EQ((*page)->device(), DeviceKind::kCpu);
  for (size_t i = 0; i < kPage; i += 991) {
    ASSERT_EQ((*page)->data_ptr()[i], std::byte(i * 7 & 0xFF)) << "at " << i;
  }
  EXPECT_EQ(hm.used_bytes(DeviceKind::kSsd), 0u);
}

TEST(HierarchicalMemoryTest, MoveToSameDeviceIsNoop) {
  HierarchicalMemory hm(SmallOptions());
  auto page = hm.CreatePage(DeviceKind::kGpu);
  ASSERT_TRUE(page.ok());
  const uint64_t epoch = (*page)->residence_epoch();
  ASSERT_TRUE(hm.MovePageSync(*page, DeviceKind::kGpu).ok());
  EXPECT_EQ((*page)->residence_epoch(), epoch);
}

TEST(HierarchicalMemoryTest, MoveToFullTierFailsAndLeavesPageIntact) {
  HierarchicalMemory hm(SmallOptions());
  // Fill the GPU tier.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(hm.CreatePage(DeviceKind::kGpu).ok());
  auto page = hm.CreatePage(DeviceKind::kCpu);
  ASSERT_TRUE(page.ok());
  std::memset((*page)->data_ptr(), 0x77, kPage);
  EXPECT_TRUE(hm.MovePageSync(*page, DeviceKind::kGpu).IsResourceExhausted());
  EXPECT_EQ((*page)->device(), DeviceKind::kCpu);
  EXPECT_EQ((*page)->data_ptr()[100], std::byte{0x77});
}

TEST(HierarchicalMemoryTest, MoveStatsAccumulate) {
  HierarchicalMemory hm(SmallOptions());
  auto page = hm.CreatePage(DeviceKind::kCpu);
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE(hm.MovePageSync(*page, DeviceKind::kGpu).ok());
  ASSERT_TRUE(hm.MovePageSync(*page, DeviceKind::kCpu).ok());
  ASSERT_TRUE(hm.MovePageSync(*page, DeviceKind::kGpu).ok());
  const MoveStats up = hm.move_stats(DeviceKind::kCpu, DeviceKind::kGpu);
  const MoveStats down = hm.move_stats(DeviceKind::kGpu, DeviceKind::kCpu);
  EXPECT_EQ(up.moves, 2u);
  EXPECT_EQ(up.bytes, 2 * kPage);
  EXPECT_EQ(down.moves, 1u);
}

TEST(HierarchicalMemoryTest, FragmentationAccounting) {
  HierarchicalMemory hm(SmallOptions());
  auto page = hm.CreatePage(DeviceKind::kCpu);
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE((*page)->Allocate(1000, 1).ok());
  ASSERT_TRUE((*page)->Allocate(1000, 2).ok());
  ASSERT_TRUE((*page)->Release(1).ok());
  EXPECT_EQ(hm.FragmentedBytes(), 1000u);
  ASSERT_TRUE((*page)->Release(2).ok());
  EXPECT_EQ(hm.FragmentedBytes(), 0u);
}

TEST(HierarchicalMemoryTest, CreateContiguousPagesAreAdjacent) {
  HierarchicalMemory hm(SmallOptions());
  auto pages = hm.CreateContiguousPages(DeviceKind::kCpu, 3);
  ASSERT_TRUE(pages.ok());
  ASSERT_EQ(pages->size(), 3u);
  for (size_t i = 1; i < pages->size(); ++i) {
    EXPECT_EQ((*pages)[i]->data_ptr(),
              (*pages)[i - 1]->data_ptr() + kPage);
  }
  EXPECT_TRUE(hm.CreateContiguousPages(DeviceKind::kSsd, 2)
                  .status()
                  .IsInvalidArgument());
  for (Page* page : *pages) ASSERT_TRUE(hm.DestroyPage(page).ok());
}

TEST(HierarchicalMemoryTest, MemoryReportShowsTiersAndMoves) {
  HierarchicalMemory hm(SmallOptions());
  auto page = hm.CreatePage(DeviceKind::kCpu);
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE(hm.MovePageSync(*page, DeviceKind::kGpu).ok());
  const MemorySnapshot snapshot = hm.Snapshot();
  EXPECT_EQ(snapshot.live_pages, 1u);
  EXPECT_EQ(snapshot.tier(DeviceKind::kGpu).pages, 1u);
  EXPECT_EQ(snapshot.tier(DeviceKind::kCpu).pages, 0u);
  EXPECT_EQ(snapshot.link(DeviceKind::kCpu, DeviceKind::kGpu).moves, 1u);
  EXPECT_EQ(snapshot.tier(DeviceKind::kGpu).used_bytes, kPage);
  const std::string report = FormatMemoryReport(snapshot);
  EXPECT_NE(report.find("gpu:"), std::string::npos);
  EXPECT_NE(report.find("cpu:"), std::string::npos);
  EXPECT_NE(report.find("moves cpu->gpu: 1"), std::string::npos);
  EXPECT_NE(report.find("1 live pages"), std::string::npos);
}

TEST(HierarchicalMemoryTest, SsdRoundTripPreservesEveryByte) {
  HierarchicalMemory hm(SmallOptions());
  auto page = hm.CreatePage(DeviceKind::kCpu);
  ASSERT_TRUE(page.ok());
  for (size_t i = 0; i < kPage; ++i) {
    (*page)->data_ptr()[i] = std::byte((i * 131 + 17) & 0xFF);
  }
  ASSERT_TRUE(hm.MovePageSync(*page, DeviceKind::kSsd).ok());
  ASSERT_TRUE(hm.MovePageSync(*page, DeviceKind::kCpu).ok());
  for (size_t i = 0; i < kPage; ++i) {
    ASSERT_EQ((*page)->data_ptr()[i], std::byte((i * 131 + 17) & 0xFF))
        << "at " << i;
  }
}

// ---------------------------------------------------------------------------
// Batched SSD crossings: MovePages and Allocator::Move over tensor sets, on
// the synchronous (io_workers = 0) and queued (4 workers) SSD backends.

std::vector<std::byte> Pattern(size_t bytes, unsigned seed) {
  std::vector<std::byte> out(bytes);
  for (size_t i = 0; i < bytes; ++i) {
    out[i] = std::byte((i * 131 + seed * 29 + 7) & 0xFF);
  }
  return out;
}

class BatchedMoveTest : public ::testing::TestWithParam<size_t> {
 protected:
  static HierarchicalMemoryOptions Options() {
    HierarchicalMemoryOptions o = SmallOptions();
    o.cpu_capacity_bytes = 32 * kPage;
    o.ssd_capacity_bytes = 32 * kPage;
    o.ssd_io_workers = GetParam();
    return o;
  }
};

TEST_P(BatchedMoveTest, MultiPageTensorRoundTripsByteExact) {
  HierarchicalMemory hm(Options());
  core::Allocator allocator(&hm);
  // Five full pages plus a partial tail page.
  auto tensor = allocator.Allocate({(5 * kPage + 1000) / 4},
                                   core::DType::kFp32, DeviceKind::kCpu);
  ASSERT_TRUE(tensor.ok());
  ASSERT_EQ((*tensor)->pages().size(), 6u);
  const std::vector<std::byte> bytes = Pattern((*tensor)->SizeBytes(), 1);
  ASSERT_TRUE((*tensor)->CopyIn(bytes.data(), bytes.size()).ok());

  ASSERT_TRUE(allocator.Move(*tensor, DeviceKind::kSsd).ok());
  for (const Page* page : (*tensor)->pages()) {
    EXPECT_EQ(page->device(), DeviceKind::kSsd);
  }
  EXPECT_EQ(hm.used_bytes(DeviceKind::kCpu), 0u);
  EXPECT_EQ(hm.move_stats(DeviceKind::kCpu, DeviceKind::kSsd).moves, 6u);

  ASSERT_TRUE(allocator.Move(*tensor, DeviceKind::kCpu).ok());
  std::vector<std::byte> out(bytes.size());
  ASSERT_TRUE((*tensor)->CopyOut(out.data(), out.size()).ok());
  EXPECT_EQ(out, bytes);
  EXPECT_EQ(hm.used_bytes(DeviceKind::kSsd), 0u);
}

TEST_P(BatchedMoveTest, GroupedMastersSharingATailPageRoundTrip) {
  HierarchicalMemory hm(Options());
  core::Allocator allocator(&hm);
  // p32 + two optimizer slots of 2.5 pages each, in one group: p32 and the
  // first slot share a tail page, the second slot opens its own.
  const size_t elements = (5 * kPage / 2) / 4;
  std::vector<core::Tensor*> masters;
  std::set<const Page*> unique_pages;
  for (unsigned t = 0; t < 3; ++t) {
    auto tensor = allocator.Allocate({elements}, core::DType::kFp32,
                                     DeviceKind::kCpu, /*group=*/7);
    ASSERT_TRUE(tensor.ok());
    const std::vector<std::byte> bytes = Pattern((*tensor)->SizeBytes(), t);
    ASSERT_TRUE((*tensor)->CopyIn(bytes.data(), bytes.size()).ok());
    masters.push_back(*tensor);
    unique_pages.insert((*tensor)->pages().begin(), (*tensor)->pages().end());
  }
  ASSERT_EQ(masters[0]->pages().back(), masters[1]->pages().back());
  ASSERT_EQ(unique_pages.size(), 8u);

  ASSERT_TRUE(allocator.Move(masters, DeviceKind::kSsd).ok());
  // The shared tail page moved once.
  EXPECT_EQ(hm.move_stats(DeviceKind::kCpu, DeviceKind::kSsd).moves, 8u);
  EXPECT_EQ(hm.used_bytes(DeviceKind::kSsd), 8 * kPage);
  EXPECT_EQ(hm.used_bytes(DeviceKind::kCpu), 0u);

  ASSERT_TRUE(allocator.Move(masters, DeviceKind::kCpu).ok());
  EXPECT_EQ(hm.move_stats(DeviceKind::kSsd, DeviceKind::kCpu).moves, 8u);
  EXPECT_EQ(hm.used_bytes(DeviceKind::kSsd), 0u);
  for (unsigned t = 0; t < 3; ++t) {
    std::vector<std::byte> out(masters[t]->SizeBytes());
    ASSERT_TRUE(masters[t]->CopyOut(out.data(), out.size()).ok());
    EXPECT_EQ(out, Pattern(out.size(), t)) << "tensor " << t;
  }
}

TEST_P(BatchedMoveTest, StageOutAssignsAscendingAdjacentFrames) {
  HierarchicalMemory hm(Options());
  // Scramble the SSD free list: frames 0..7 come back in a non-monotone
  // order, as they do after interleaved releases.
  std::vector<Page*> scratch;
  for (int i = 0; i < 8; ++i) {
    auto page = hm.CreatePage(DeviceKind::kSsd);
    ASSERT_TRUE(page.ok());
    scratch.push_back(*page);
  }
  for (const int i : {3, 0, 6, 1, 7, 2, 5, 4}) {
    ASSERT_TRUE(hm.DestroyPage(scratch[size_t(i)]).ok());
  }
  std::vector<Page*> pages;
  for (unsigned i = 0; i < 8; ++i) {
    auto page = hm.CreatePage(DeviceKind::kCpu);
    ASSERT_TRUE(page.ok());
    const std::vector<std::byte> bytes = Pattern(kPage, i);
    std::memcpy((*page)->data_ptr(), bytes.data(), kPage);
    pages.push_back(*page);
  }
  ASSERT_TRUE(hm.MovePages(pages, DeviceKind::kSsd).ok());
  for (size_t i = 1; i < pages.size(); ++i) {
    EXPECT_EQ(pages[i]->ssd_offset(), pages[i - 1]->ssd_offset() + kPage)
        << "page " << i;
  }
  // Read back in a different list order: the batch sorts by file offset.
  std::vector<Page*> reversed(pages.rbegin(), pages.rend());
  ASSERT_TRUE(hm.MovePages(reversed, DeviceKind::kCpu).ok());
  for (unsigned i = 0; i < pages.size(); ++i) {
    ASSERT_EQ(pages[i]->device(), DeviceKind::kCpu);
    EXPECT_EQ(std::memcmp(pages[i]->data_ptr(), Pattern(kPage, i).data(),
                          kPage),
              0)
        << "page " << i;
  }
}

TEST_P(BatchedMoveTest, RejectsDuplicateAndNullPagesBeforeMoving) {
  HierarchicalMemory hm(Options());
  auto page = hm.CreatePage(DeviceKind::kCpu);
  ASSERT_TRUE(page.ok());
  std::vector<Page*> twice = {*page, *page};
  EXPECT_TRUE(hm.MovePages(twice, DeviceKind::kSsd).IsInvalidArgument());
  std::vector<Page*> with_null = {*page, nullptr};
  EXPECT_TRUE(hm.MovePages(with_null, DeviceKind::kSsd).IsInvalidArgument());
  EXPECT_EQ((*page)->device(), DeviceKind::kCpu);
  EXPECT_EQ(hm.used_bytes(DeviceKind::kSsd), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, BatchedMoveTest, ::testing::Values(size_t{0}, size_t{4}),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return info.param == 0 ? std::string("sync") : std::string("queued");
    });

TEST(HierarchicalMemoryTest, QueuedBatchCoalescesIntoFewerSyscalls) {
  HierarchicalMemoryOptions o = SmallOptions();
  o.cpu_capacity_bytes = 32 * kPage;
  o.ssd_capacity_bytes = 32 * kPage;
  o.ssd_io_workers = 4;
  // Keeps the workers busy long enough for the rest of the batch to queue
  // behind them and chain.
  o.ssd_io_op_latency_us = 2000;
  HierarchicalMemory hm(o);
  if (hm.ssd()->io_workers() == 0) {
    GTEST_SKIP() << "ANGELPTM_SSD_IO_WORKERS=0 forces one syscall per page";
  }
  std::vector<Page*> pages;
  for (int i = 0; i < 16; ++i) {
    auto page = hm.CreatePage(DeviceKind::kCpu);
    ASSERT_TRUE(page.ok());
    pages.push_back(*page);
  }
  ASSERT_TRUE(hm.MovePages(pages, DeviceKind::kSsd).ok());
  const SsdTier::Stats out = hm.ssd()->Snapshot();
  EXPECT_EQ(out.queued_requests, 16u);
  EXPECT_LT(out.io_batches, 16u);

  ASSERT_TRUE(hm.MovePages(pages, DeviceKind::kCpu).ok());
  const SsdTier::Stats in = hm.ssd()->Snapshot();
  EXPECT_EQ(in.queued_requests, 32u);
  EXPECT_LT(in.io_batches - out.io_batches, 16u);
}

}  // namespace
}  // namespace angelptm::mem
