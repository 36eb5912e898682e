#include "core/allocator.h"

#include <algorithm>
#include <string>
#include <unordered_set>

#include "util/logging.h"

namespace angelptm::core {

Allocator::Allocator(mem::HierarchicalMemory* memory) : memory_(memory) {}

Allocator::~Allocator() {
  // Live tensors at teardown are released so their frames return to tiers.
  util::MutexLock lock(mutex_);
  for (auto& [id, tensor] : tensors_) {
    for (mem::Page* page : tensor->pages()) {
      (void)page->Release(id);
      if (page->IsEmpty()) {
        ForgetOpenPage(page);
        (void)memory_->DestroyPage(page);
      }
    }
  }
  tensors_.clear();
}

util::Result<Tensor*> Allocator::Allocate(std::vector<size_t> shape,
                                          DType dtype,
                                          mem::DeviceKind device,
                                          uint64_t group) {
  size_t elements = 1;
  for (size_t d : shape) elements *= d;
  if (elements == 0) {
    return util::Status::InvalidArgument("tensor with zero elements");
  }
  util::MutexLock lock(mutex_);
  auto tensor =
      std::make_unique<Tensor>(next_tensor_id_++, std::move(shape), dtype);
  Tensor* raw = tensor.get();
  ANGEL_RETURN_IF_ERROR(AllocatePagesLocked(raw, device, group));
  allocated_bytes_ += raw->SizeBytes();
  tensors_.emplace(raw->id(), std::move(tensor));
  return raw;
}

util::Status Allocator::AllocatePagesLocked(Tensor* tensor,
                                            mem::DeviceKind device,
                                            uint64_t group) {
  const size_t page_bytes = memory_->page_bytes();
  const size_t total = tensor->SizeBytes();
  const size_t full_pages = total / page_bytes;
  const size_t tail = total % page_bytes;

  std::vector<mem::Page*> created;
  auto rollback = [&]() ANGEL_REQUIRES(mutex_) {
    for (mem::Page* page : created) {
      (void)page->Release(tensor->id());
      if (page->IsEmpty()) {
        ForgetOpenPage(page);
        (void)memory_->DestroyPage(page);
        page_capacity_bytes_ -= page_bytes;
      }
    }
  };

  for (size_t i = 0; i < full_pages; ++i) {
    auto page = memory_->CreatePage(device);
    if (!page.ok()) {
      rollback();
      return page.status();
    }
    const util::Status alloc = (*page)->Allocate(page_bytes, tensor->id());
    if (!alloc.ok()) {
      (void)memory_->DestroyPage(*page);
      rollback();
      return alloc;
    }
    created.push_back(*page);
    page_capacity_bytes_ += page_bytes;
  }

  if (tail > 0) {
    mem::Page* tail_page = nullptr;
    bool reused_open_page = false;
    if (group != kNoGroup) {
      const auto it = open_pages_.find(OpenPageKey{device, group});
      if (it != open_pages_.end() && it->second->available_bytes() >= tail &&
          it->second->NumTensors() < mem::kMaxTensorsPerPage) {
        tail_page = it->second;
        reused_open_page = true;
      }
    }
    if (tail_page == nullptr) {
      auto page = memory_->CreatePage(device);
      if (!page.ok()) {
        rollback();
        return page.status();
      }
      tail_page = *page;
      page_capacity_bytes_ += page_bytes;
    }
    const util::Status alloc = tail_page->Allocate(tail, tensor->id());
    if (!alloc.ok()) {
      if (!reused_open_page) {
        page_capacity_bytes_ -= page_bytes;
        (void)memory_->DestroyPage(tail_page);
      }
      rollback();
      return alloc;
    }
    created.push_back(tail_page);
    // Update the open-page registry for tail sharing within the group.
    if (group != kNoGroup) {
      if (tail_page->NumTensors() >= mem::kMaxTensorsPerPage) {
        open_pages_.erase(OpenPageKey{device, group});
      } else if (!reused_open_page) {
        open_pages_[OpenPageKey{device, group}] = tail_page;
      }
    }
  }

  *tensor->mutable_pages() = std::move(created);
  return util::Status::OK();
}

util::Status Allocator::Release(Tensor* tensor) {
  if (tensor == nullptr) return util::Status::InvalidArgument("null tensor");
  util::MutexLock lock(mutex_);
  const auto it = tensors_.find(tensor->id());
  if (it == tensors_.end() || it->second.get() != tensor) {
    return util::Status::NotFound("tensor " + std::to_string(tensor->id()) +
                                  " not owned by this allocator");
  }
  ANGEL_RETURN_IF_ERROR(CheckNotMovingLocked(*tensor, "release"));
  for (mem::Page* page : tensor->pages()) {
    ANGEL_RETURN_IF_ERROR(page->Release(tensor->id()));
    if (page->IsEmpty()) {
      ForgetOpenPage(page);
      ANGEL_RETURN_IF_ERROR(memory_->DestroyPage(page));
      page_capacity_bytes_ -= memory_->page_bytes();
    }
  }
  allocated_bytes_ -= tensor->SizeBytes();
  tensors_.erase(it);
  return util::Status::OK();
}

util::Status Allocator::Move(std::span<Tensor* const> tensors,
                             mem::DeviceKind target) {
  // alloc.state covers the bookkeeping, not the I/O: the pages are
  // collected and marked in flight under the lock, MovePages runs outside
  // it, and the marks are cleared afterwards. Compute-side Allocate/
  // Release/Move calls therefore no longer wait behind an updater's master
  // batch (DESIGN.md §12.7); Release and Merge refuse a tensor whose pages
  // are marked, so no frame is freed mid-I/O.
  std::vector<mem::Page*> pages;
  {
    util::MutexLock lock(mutex_);
    std::unordered_set<const mem::Page*> seen;
    for (const Tensor* tensor : tensors) {
      if (tensor == nullptr) {
        return util::Status::InvalidArgument("null tensor");
      }
      for (mem::Page* page : tensor->pages()) {
        // Grouped tensors share tail pages; move each page once.
        if (seen.insert(page).second) pages.push_back(page);
      }
    }
    for (const mem::Page* page : pages) {
      if (moving_pages_.count(page) != 0) {
        return util::Status::FailedPrecondition(
            "page " + std::to_string(page->id()) + " is already moving");
      }
    }
    for (const mem::Page* page : pages) {
      // A moved page can no longer serve as an open tail on its old tier.
      ForgetOpenPage(page);
      moving_pages_.insert(page);
    }
  }
  const util::Status moved = memory_->MovePages(pages, target);
  util::MutexLock lock(mutex_);
  for (const mem::Page* page : pages) moving_pages_.erase(page);
  return moved;
}

util::Status Allocator::Merge(Tensor* tensor) {
  if (tensor == nullptr) return util::Status::InvalidArgument("null tensor");
  util::MutexLock lock(mutex_);
  ANGEL_RETURN_IF_ERROR(CheckNotMovingLocked(*tensor, "merge"));
  if (tensor->IsContiguous()) return util::Status::OK();
  if (!tensor->IsResident()) {
    return util::Status::FailedPrecondition(
        "merge requires a memory-resident tensor");
  }
  const auto device = static_cast<mem::DeviceKind>(tensor->device_index());
  const size_t page_bytes = memory_->page_bytes();
  const size_t total = tensor->SizeBytes();
  const size_t pages_needed = (total + page_bytes - 1) / page_bytes;

  // Stage the bytes, then re-pack onto physically adjacent frames.
  std::vector<std::byte> staging(total);
  ANGEL_RETURN_IF_ERROR(tensor->CopyOut(staging.data(), total));

  ANGEL_ASSIGN_OR_RETURN(
      std::vector<mem::Page*> fresh,
      memory_->CreateContiguousPages(device, pages_needed));
  size_t remaining = total;
  for (mem::Page* page : fresh) {
    const size_t chunk = std::min(remaining, page_bytes);
    ANGEL_CHECK_OK(page->Allocate(chunk, tensor->id()));
    remaining -= chunk;
  }
  page_capacity_bytes_ += pages_needed * page_bytes;

  // Retire the old placement.
  for (mem::Page* page : tensor->pages()) {
    ANGEL_RETURN_IF_ERROR(page->Release(tensor->id()));
    if (page->IsEmpty()) {
      ForgetOpenPage(page);
      ANGEL_RETURN_IF_ERROR(memory_->DestroyPage(page));
      page_capacity_bytes_ -= page_bytes;
    }
  }
  *tensor->mutable_pages() = std::move(fresh);
  return tensor->CopyIn(staging.data(), total);
}

size_t Allocator::num_tensors() const {
  util::MutexLock lock(mutex_);
  return tensors_.size();
}

uint64_t Allocator::allocated_bytes() const {
  util::MutexLock lock(mutex_);
  return allocated_bytes_;
}

uint64_t Allocator::padding_bytes() const {
  util::MutexLock lock(mutex_);
  return page_capacity_bytes_ - allocated_bytes_;
}

size_t Allocator::pages_in_flight() const {
  util::MutexLock lock(mutex_);
  return moving_pages_.size();
}

util::Status Allocator::CheckNotMovingLocked(const Tensor& tensor,
                                             const char* op) const {
  for (const mem::Page* page : tensor.pages()) {
    if (moving_pages_.count(page) != 0) {
      return util::Status::FailedPrecondition(
          std::string("cannot ") + op + " tensor " +
          std::to_string(tensor.id()) + ": page " +
          std::to_string(page->id()) + " is moving");
    }
  }
  return util::Status::OK();
}

void Allocator::ForgetOpenPage(const mem::Page* page) {
  for (auto it = open_pages_.begin(); it != open_pages_.end();) {
    if (it->second == page) {
      it = open_pages_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace angelptm::core
