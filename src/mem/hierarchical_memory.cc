#include "mem/hierarchical_memory.h"

#include <algorithm>
#include <cstring>
#include <future>

#include "obs/trace.h"
#include "util/fault_injector.h"
#include "util/logging.h"

namespace angelptm::mem {

HierarchicalMemory::HierarchicalMemory(
    const HierarchicalMemoryOptions& options)
    : options_(options),
      pcie_throttle_(options.pcie_bandwidth_bytes_per_sec) {
  obs::Registry& registry = obs::Registry::Instance();
  metric_pages_created_ = registry.GetCounter("mem/pages_created");
  metric_page_moves_ = registry.GetCounter("mem/page_moves");
  metric_page_move_bytes_ = registry.GetCounter("mem/page_move_bytes");
  gpu_arena_ = std::make_unique<PageArena>(
      DeviceKind::kGpu, options.gpu_capacity_bytes, options.page_bytes);
  cpu_arena_ = std::make_unique<PageArena>(
      DeviceKind::kCpu, options.cpu_capacity_bytes, options.page_bytes);
  if (options.ssd_capacity_bytes > 0) {
    SsdTier::Options ssd_options;
    ssd_options.path = options.ssd_path;
    ssd_options.capacity_bytes = options.ssd_capacity_bytes;
    ssd_options.frame_bytes = options.page_bytes;
    ssd_options.throttle_bytes_per_sec = options.ssd_bandwidth_bytes_per_sec;
    ssd_options.retry = options.ssd_retry;
    ssd_options.io_workers = options.ssd_io_workers;
    ssd_options.io_queue_depth = options.ssd_io_queue_depth;
    ssd_options.io_max_coalesce = options.ssd_io_coalesce;
    ssd_options.io_op_latency_us = options.ssd_io_op_latency_us;
    ANGEL_CHECK_OK(ssd_.Open(ssd_options));
    ssd_enabled_ = true;
  }
}

HierarchicalMemory::~HierarchicalMemory() = default;

util::Result<Page*> HierarchicalMemory::CreatePage(DeviceKind initial_device) {
  auto page =
      std::make_unique<Page>(next_page_id_.fetch_add(1), options_.page_bytes);
  if (initial_device == DeviceKind::kSsd) {
    if (!ssd_enabled_) {
      return util::Status::FailedPrecondition("SSD tier not configured");
    }
    ANGEL_ASSIGN_OR_RETURN(uint64_t offset, ssd_.AcquireFrame());
    page->SetSsdResidence(offset);
  } else {
    ANGEL_ASSIGN_OR_RETURN(std::byte* frame,
                           MutableArena(initial_device).AcquireFrame());
    page->SetResidence(initial_device, frame);
  }
  Page* raw = page.get();
  metric_pages_created_->Increment();
  tier_pages_[static_cast<int>(initial_device)].fetch_add(1);
  util::MutexLock lock(registry_mutex_);
  pages_.emplace(raw->id(), std::move(page));
  return raw;
}

util::Result<std::vector<Page*>> HierarchicalMemory::CreateContiguousPages(
    DeviceKind device, size_t count) {
  if (device == DeviceKind::kSsd) {
    return util::Status::InvalidArgument(
        "contiguous pages only exist in memory tiers");
  }
  ANGEL_ASSIGN_OR_RETURN(std::byte* base,
                         MutableArena(device).AcquireContiguousFrames(count));
  std::vector<Page*> result;
  result.reserve(count);
  metric_pages_created_->Increment(count);
  tier_pages_[static_cast<int>(device)].fetch_add(count);
  util::MutexLock lock(registry_mutex_);
  for (size_t i = 0; i < count; ++i) {
    auto page = std::make_unique<Page>(next_page_id_.fetch_add(1),
                                       options_.page_bytes);
    page->SetResidence(device, base + i * options_.page_bytes);
    result.push_back(page.get());
    pages_.emplace(page->id(), std::move(page));
  }
  return result;
}

util::Status HierarchicalMemory::DestroyPage(Page* page, bool force) {
  if (page == nullptr) {
    return util::Status::InvalidArgument("null page");
  }
  if (!force && !page->IsEmpty()) {
    return util::Status::FailedPrecondition(
        "page " + std::to_string(page->id()) + " still hosts tensors");
  }
  if (page->device() == DeviceKind::kSsd) {
    ssd_.ReleaseFrame(page->ssd_offset());
  } else {
    MutableArena(page->device()).ReleaseFrame(page->data_ptr());
  }
  tier_pages_[static_cast<int>(page->device())].fetch_sub(1);
  util::MutexLock lock(registry_mutex_);
  const size_t erased = pages_.erase(page->id());
  ANGEL_CHECK(erased == 1) << "destroying unregistered page";
  return util::Status::OK();
}

util::Status HierarchicalMemory::MovePageSync(Page* page, DeviceKind target) {
  return MovePages({&page, 1}, target);
}

util::Status HierarchicalMemory::MovePages(std::span<Page* const> pages,
                                           DeviceKind target) {
  // Validate the whole list before anything moves: a duplicate would be
  // staged twice and its source frame released twice.
  std::vector<Page*> sorted(pages.begin(), pages.end());
  std::sort(sorted.begin(), sorted.end());
  if (!sorted.empty() && sorted.front() == nullptr) {
    return util::Status::InvalidArgument("null page");
  }
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return util::Status::InvalidArgument("page listed twice in one move");
  }
  std::vector<Page*> ssd_batch;
  for (Page* page : pages) {
    ANGEL_FAULT_CHECK("hmem.move_page");
    const DeviceKind source = page->device();
    if (source == target) continue;
    if (source != DeviceKind::kSsd && target != DeviceKind::kSsd) {
      ANGEL_RETURN_IF_ERROR(MoveMemoryPage(page, target));
    } else if (!ssd_enabled_) {
      return util::Status::FailedPrecondition("SSD tier not configured");
    } else {
      ssd_batch.push_back(page);
    }
  }
  if (ssd_batch.empty()) return util::Status::OK();
  return MoveSsdBatch(std::move(ssd_batch), target);
}

util::Status HierarchicalMemory::MoveMemoryPage(Page* page,
                                                DeviceKind target) {
  ANGEL_SPAN("mem", "move_page");
  const DeviceKind source = page->device();
  const size_t bytes = page->total_bytes();
  ANGEL_ASSIGN_OR_RETURN(std::byte* frame,
                         MutableArena(target).AcquireFrame());
  std::memcpy(frame, page->data_ptr(), bytes);
  pcie_throttle_.Consume(bytes);
  MutableArena(source).ReleaseFrame(page->data_ptr());
  page->SetResidence(target, frame);
  RecordMove(source, target, bytes);
  return util::Status::OK();
}

util::Status HierarchicalMemory::MoveSsdBatch(std::vector<Page*> batch,
                                              DeviceKind target) {
  ANGEL_SPAN("mem", "move_ssd_batch");
  const bool to_ssd = target == DeviceKind::kSsd;
  if (!to_ssd) {
    // Read in ascending file order so the queue chains adjacent frames.
    std::sort(batch.begin(), batch.end(), [](const Page* a, const Page* b) {
      return a->ssd_offset() < b->ssd_offset();
    });
  }
  // Every target frame is acquired before any I/O, so a full tier fails
  // the batch with every page untouched. offsets[i] and frames[i] are the
  // SSD and memory ends of page i's transfer.
  std::vector<uint64_t> offsets;
  std::vector<std::byte*> frames;
  offsets.reserve(batch.size());
  frames.reserve(batch.size());
  for (Page* page : batch) {
    if (to_ssd) {
      util::Result<uint64_t> offset = ssd_.AcquireFrame();
      if (!offset.ok()) {
        for (const uint64_t acquired : offsets) ssd_.ReleaseFrame(acquired);
        return offset.status();
      }
      offsets.push_back(*offset);
      frames.push_back(page->data_ptr());
    } else {
      util::Result<std::byte*> frame = MutableArena(target).AcquireFrame();
      if (!frame.ok()) {
        for (std::byte* acquired : frames) {
          MutableArena(target).ReleaseFrame(acquired);
        }
        return frame.status();
      }
      offsets.push_back(page->ssd_offset());
      frames.push_back(*frame);
    }
  }
  // Pages land on ascending frames, so a layer written out together is
  // read back as adjacent runs too.
  if (to_ssd) std::sort(offsets.begin(), offsets.end());

  std::vector<std::future<util::Status>> pending;
  pending.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const size_t bytes = batch[i]->total_bytes();
    pending.push_back(to_ssd
                          ? ssd_.WriteFrameAsync(offsets[i], frames[i], bytes)
                          : ssd_.ReadFrameAsync(offsets[i], frames[i], bytes));
  }
  // Settle every request before committing anything or returning: each
  // one points into an arena frame.
  std::vector<util::Status> results;
  results.reserve(pending.size());
  for (auto& request : pending) results.push_back(request.get());

  util::Status first_error;
  for (size_t i = 0; i < batch.size(); ++i) {
    Page* page = batch[i];
    if (!results[i].ok()) {
      // The page stays intact on its source; return its target frame.
      if (to_ssd) {
        ssd_.ReleaseFrame(offsets[i]);
      } else {
        MutableArena(target).ReleaseFrame(frames[i]);
      }
      if (first_error.ok()) first_error = results[i];
      continue;
    }
    const DeviceKind source = page->device();
    if (to_ssd) {
      MutableArena(source).ReleaseFrame(frames[i]);
      page->SetSsdResidence(offsets[i]);
    } else {
      ssd_.ReleaseFrame(offsets[i]);
      page->SetResidence(target, frames[i]);
    }
    RecordMove(source, target, page->total_bytes());
  }
  return first_error;
}

void HierarchicalMemory::RecordMove(DeviceKind source, DeviceKind target,
                                    size_t bytes) {
  metric_page_moves_->Increment();
  metric_page_move_bytes_->Increment(bytes);
  tier_pages_[static_cast<int>(source)].fetch_sub(1);
  tier_pages_[static_cast<int>(target)].fetch_add(1);
  util::MutexLock lock(stats_mutex_);
  auto& cell = move_stats_[static_cast<int>(source)][static_cast<int>(target)];
  cell.moves += 1;
  cell.bytes += bytes;
}

size_t HierarchicalMemory::num_live_pages() const {
  util::MutexLock lock(registry_mutex_);
  return pages_.size();
}

uint64_t HierarchicalMemory::used_bytes(DeviceKind device) const {
  switch (device) {
    case DeviceKind::kGpu:
      return gpu_arena_->used_bytes();
    case DeviceKind::kCpu:
      return cpu_arena_->used_bytes();
    case DeviceKind::kSsd:
      return ssd_enabled_
                 ? (ssd_.capacity_bytes() -
                    uint64_t{ssd_.free_frames()} * ssd_.frame_bytes())
                 : 0;
  }
  return 0;
}

uint64_t HierarchicalMemory::capacity_bytes(DeviceKind device) const {
  switch (device) {
    case DeviceKind::kGpu:
      return gpu_arena_->capacity_bytes();
    case DeviceKind::kCpu:
      return cpu_arena_->capacity_bytes();
    case DeviceKind::kSsd:
      return ssd_enabled_ ? ssd_.capacity_bytes() : 0;
  }
  return 0;
}

uint64_t HierarchicalMemory::FragmentedBytes() const {
  util::MutexLock lock(registry_mutex_);
  uint64_t total = 0;
  for (const auto& [id, page] : pages_) {
    total += page->FragmentedBytes();
  }
  return total;
}

MoveStats HierarchicalMemory::move_stats(DeviceKind from, DeviceKind to) const {
  util::MutexLock lock(stats_mutex_);
  return move_stats_[static_cast<int>(from)][static_cast<int>(to)];
}

MemorySnapshot HierarchicalMemory::Snapshot() const {
  MemorySnapshot snapshot;
  snapshot.page_bytes = options_.page_bytes;
  for (const DeviceKind kind :
       {DeviceKind::kGpu, DeviceKind::kCpu, DeviceKind::kSsd}) {
    TierUsage& tier = snapshot.tiers[static_cast<int>(kind)];
    tier.used_bytes = used_bytes(kind);
    tier.capacity_bytes = capacity_bytes(kind);
    tier.pages = tier_pages_[static_cast<int>(kind)].load();
  }
  {
    util::MutexLock lock(registry_mutex_);
    snapshot.live_pages = pages_.size();
    for (const auto& [id, page] : pages_) {
      snapshot.fragmented_bytes += page->FragmentedBytes();
    }
  }
  {
    util::MutexLock lock(stats_mutex_);
    snapshot.moves = move_stats_;
  }
  return snapshot;
}

PageArena& HierarchicalMemory::MutableArena(DeviceKind device) {
  switch (device) {
    case DeviceKind::kGpu:
      return *gpu_arena_;
    case DeviceKind::kCpu:
      return *cpu_arena_;
    case DeviceKind::kSsd:
      break;
  }
  ANGEL_FATAL() << "no arena for device " << DeviceKindName(device);
  __builtin_unreachable();
}

}  // namespace angelptm::mem
