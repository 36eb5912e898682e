#ifndef ANGELPTM_CORE_ALLOCATOR_H_
#define ANGELPTM_CORE_ALLOCATOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/tensor.h"
#include "mem/copy_engine.h"
#include "mem/hierarchical_memory.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace angelptm::core {

/// Tensors allocated with the same group may share their tail page (§4.1:
/// "by carefully arranging these tensors, we can ensure that each page is
/// associated with at most two tensors"). Groups correspond to model layers,
/// so co-resident tensors move between tiers together. kNoGroup tensors get
/// exclusive pages.
inline constexpr uint64_t kNoGroup = ~0ull;

/// The Allocator component of Angel-PTM (§5): manages tensors at the Page
/// level over the pre-allocated hierarchical memory. Implements the Tensor
/// interfaces of Fig. 4 — allocate, release, move, merge — on top of
/// mem::HierarchicalMemory.
class Allocator {
 public:
  /// `memory` must outlive the allocator.
  explicit Allocator(mem::HierarchicalMemory* memory);
  ~Allocator();

  Allocator(const Allocator&) = delete;
  Allocator& operator=(const Allocator&) = delete;

  /// Creates a tensor of `shape`/`dtype` resident on `device`. Whole pages
  /// are exclusive; the tail (bytes % page size) shares a page with at most
  /// one other tensor of the same `group`. Tensors smaller than one page get
  /// an individual page (shared only within their group).
  [[nodiscard]] util::Result<Tensor*> Allocate(std::vector<size_t> shape,
                                               DType dtype,
                                               mem::DeviceKind device,
                                               uint64_t group = kNoGroup)
      ANGEL_EXCLUDES(mutex_);

  /// Releases the tensor's claims; pages that drain are destroyed, returning
  /// frames to their tier. FailedPrecondition (nothing released) while one
  /// of its pages is in a Move's I/O.
  [[nodiscard]] util::Status Release(Tensor* tensor) ANGEL_EXCLUDES(mutex_);

  /// Moves every page of the tensors to `target` in one
  /// HierarchicalMemory::MovePages call, synchronously; a tail page that
  /// grouped tensors share is moved once. A shared tail page carries its
  /// partner tensor's bytes along (by design — grouped tensors co-migrate).
  /// SSD crossings therefore travel as one coalesced batch. The lock is
  /// held only to collect the pages and mark them in flight, not across
  /// the I/O, so other threads allocate, release and move other tensors
  /// meanwhile; moving a page that is already in flight fails with
  /// FailedPrecondition.
  [[nodiscard]] util::Status Move(std::span<Tensor* const> tensors,
                                  mem::DeviceKind target)
      ANGEL_EXCLUDES(mutex_);
  [[nodiscard]] util::Status Move(Tensor* tensor, mem::DeviceKind target)
      ANGEL_EXCLUDES(mutex_) {
    return Move({&tensor, 1}, target);
  }

  /// Ensures the tensor's bytes form one contiguous range, re-packing onto
  /// physically adjacent frames if necessary (Fig. 4 `merge`). Requires the
  /// tensor to be resident in a memory tier, and none of its pages in a
  /// Move's I/O (FailedPrecondition).
  [[nodiscard]] util::Status Merge(Tensor* tensor) ANGEL_EXCLUDES(mutex_);

  /// Number of live tensors.
  size_t num_tensors() const ANGEL_EXCLUDES(mutex_);
  /// Bytes requested by live tensors (excluding page-granularity padding).
  uint64_t allocated_bytes() const ANGEL_EXCLUDES(mutex_);
  /// Bytes of page capacity held minus bytes requested: the internal waste
  /// the 4 MiB page choice trades for bandwidth (§4.1).
  uint64_t padding_bytes() const ANGEL_EXCLUDES(mutex_);
  /// Pages whose Move is in its I/O right now.
  size_t pages_in_flight() const ANGEL_EXCLUDES(mutex_);

  mem::HierarchicalMemory* memory() { return memory_; }

 private:
  struct OpenPageKey {
    mem::DeviceKind device;
    uint64_t group;
    bool operator<(const OpenPageKey& other) const {
      return std::tie(device, group) < std::tie(other.device, other.group);
    }
  };

  [[nodiscard]] util::Status AllocatePagesLocked(Tensor* tensor,
                                                 mem::DeviceKind device,
                                                 uint64_t group)
      ANGEL_REQUIRES(mutex_);
  void ForgetOpenPage(const mem::Page* page) ANGEL_REQUIRES(mutex_);
  /// FailedPrecondition when one of the tensor's pages is in flight.
  [[nodiscard]] util::Status CheckNotMovingLocked(const Tensor& tensor,
                                                  const char* op) const
      ANGEL_REQUIRES(mutex_);

  mem::HierarchicalMemory* memory_;

  mutable util::Mutex mutex_{"alloc.state", util::lockrank::kAllocState};
  std::unordered_map<uint64_t, std::unique_ptr<Tensor>> tensors_
      ANGEL_GUARDED_BY(mutex_);
  uint64_t next_tensor_id_ ANGEL_GUARDED_BY(mutex_) = 0;
  uint64_t allocated_bytes_ ANGEL_GUARDED_BY(mutex_) = 0;
  uint64_t page_capacity_bytes_ ANGEL_GUARDED_BY(mutex_) = 0;
  /// Pages with one tensor and remaining space, eligible as a shared tail.
  std::map<OpenPageKey, mem::Page*> open_pages_ ANGEL_GUARDED_BY(mutex_);
  /// Pages of the Move calls whose MovePages is running: their frames are
  /// mid-I/O, so no Release or Merge may free them and no second Move may
  /// take them.
  std::unordered_set<const mem::Page*> moving_pages_ ANGEL_GUARDED_BY(mutex_);
};

}  // namespace angelptm::core

#endif  // ANGELPTM_CORE_ALLOCATOR_H_
