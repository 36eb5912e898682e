#include "core/tensor.h"

#include <cstdint>
#include <cstring>
#include <utility>

#include "train/simd/half_codec.h"
#include "util/half.h"
#include "util/logging.h"

namespace angelptm::core {
namespace {

/// Invokes `fn(frame + slot_offset, span_bytes, tensor_offset)` for each of
/// the tensor's page spans in byte order, where `frame` is
/// `frame_of(page)`: the bytes of the page as laid out in its frame, or
/// null when they cannot be addressed. Returns early on error.
template <typename FrameOf, typename Fn>
util::Status ForEachSpanIn(const Tensor& tensor, FrameOf&& frame_of,
                           Fn&& fn) {
  size_t tensor_offset = 0;
  for (mem::Page* page : tensor.pages()) {
    const mem::Page::Slot* slot = page->FindSlot(tensor.id());
    if (slot == nullptr) {
      return util::Status::Internal("tensor " + std::to_string(tensor.id()) +
                                    " missing slot on page " +
                                    std::to_string(page->id()));
    }
    auto* frame = frame_of(*page);
    if (frame == nullptr) {
      return util::Status::FailedPrecondition(
          "tensor " + std::to_string(tensor.id()) + " has page on SSD");
    }
    ANGEL_RETURN_IF_ERROR(fn(frame + slot->offset, slot->bytes, tensor_offset));
    tensor_offset += slot->bytes;
  }
  return util::Status::OK();
}

/// The page's own frame, or null while it is on SSD.
std::byte* ResidentFrame(const mem::Page& page) {
  return page.device() == mem::DeviceKind::kSsd ? nullptr : page.data_ptr();
}

/// ForEachSpanIn over the pages' own frames.
template <typename Fn>
util::Status ForEachSpan(const Tensor& tensor, Fn&& fn) {
  return ForEachSpanIn(tensor, ResidentFrame, std::forward<Fn>(fn));
}

/// A 16-bit tensor's page spans hold whole, aligned elements: slot sizes
/// and offsets within a page are sums of element sizes. Checked anyway,
/// since the codec reads the span in place.
util::Status CheckHalfSpan(const std::byte* span, size_t span_bytes,
                           size_t offset) {
  if (span_bytes % sizeof(uint16_t) != 0 || offset % sizeof(uint16_t) != 0 ||
      reinterpret_cast<uintptr_t>(span) % alignof(uint16_t) != 0) {
    return util::Status::Internal("16-bit tensor span splits an element");
  }
  return util::Status::OK();
}

}  // namespace

size_t Tensor::NumElements() const {
  size_t n = 1;
  for (size_t d : shape_) n *= d;
  return n;
}

int Tensor::device_index() const {
  if (pages_.empty()) return mem::kDeviceNotReady;
  const mem::DeviceKind first = pages_.front()->device();
  for (const mem::Page* page : pages_) {
    if (page->device() != first) return mem::kDeviceNotReady;
  }
  return static_cast<int>(first);
}

bool Tensor::IsResident() const {
  const int device = device_index();
  return device != mem::kDeviceNotReady &&
         device != static_cast<int>(mem::DeviceKind::kSsd);
}

bool Tensor::IsContiguous() const {
  if (pages_.empty()) return false;
  if (!IsResident()) return false;
  const std::byte* expected = nullptr;
  for (const mem::Page* page : pages_) {
    const mem::Page::Slot* slot = page->FindSlot(id_);
    if (slot == nullptr) return false;
    const std::byte* start = page->data_ptr() + slot->offset;
    if (expected != nullptr && start != expected) return false;
    expected = start + slot->bytes;
  }
  return true;
}

std::byte* Tensor::data() {
  ANGEL_CHECK(IsResident()) << "tensor " << id_ << " not resident";
  ANGEL_CHECK(IsContiguous()) << "tensor " << id_ << " not contiguous";
  const mem::Page::Slot* slot = pages_.front()->FindSlot(id_);
  return pages_.front()->data_ptr() + slot->offset;
}

const std::byte* Tensor::data() const {
  return const_cast<Tensor*>(this)->data();
}

util::Status Tensor::CopyOut(std::byte* dst, size_t bytes) const {
  if (bytes != SizeBytes()) {
    return util::Status::InvalidArgument("CopyOut size mismatch");
  }
  return ForEachSpan(*this, [dst](const std::byte* src, size_t span_bytes,
                                  size_t offset) {
    std::memcpy(dst + offset, src, span_bytes);
    return util::Status::OK();
  });
}

util::Status Tensor::CopyIn(const std::byte* src, size_t bytes) {
  if (bytes != SizeBytes()) {
    return util::Status::InvalidArgument("CopyIn size mismatch");
  }
  return ForEachSpan(*this, [src](std::byte* dst, size_t span_bytes,
                                  size_t offset) {
    std::memcpy(dst, src + offset, span_bytes);
    return util::Status::OK();
  });
}

util::Status Tensor::ReadFloats(std::vector<float>* out) const {
  return ReadFloats(ResidentFrame, out);
}

util::Status Tensor::ReadFloats(const PageBytes& bytes_of,
                                std::vector<float>* out) const {
  const size_t n = NumElements();
  out->resize(n);
  float* dst = out->data();
  const DType dtype = dtype_;
  return ForEachSpanIn(*this, bytes_of, [dst, dtype](const std::byte* src,
                                                     size_t span_bytes,
                                                     size_t offset) {
    if (dtype == DType::kFp32) {
      std::memcpy(reinterpret_cast<std::byte*>(dst) + offset, src,
                  span_bytes);
      return util::Status::OK();
    }
    // 16-bit dtypes decode straight out of each page span: fp16 through the
    // bulk codec, bf16 element by element.
    ANGEL_RETURN_IF_ERROR(CheckHalfSpan(src, span_bytes, offset));
    const uint16_t* bits = reinterpret_cast<const uint16_t*>(src);
    const size_t count = span_bytes / sizeof(uint16_t);
    float* values = dst + offset / sizeof(uint16_t);
    if (dtype == DType::kFp16) {
      simd::HalfBitsToFloats(bits, values, count);
    } else {
      for (size_t i = 0; i < count; ++i) {
        values[i] = util::BFloat16BitsToFloat(bits[i]);
      }
    }
    return util::Status::OK();
  });
}

util::Status Tensor::WriteFloats(const std::vector<float>& values) {
  if (values.size() != NumElements()) {
    return util::Status::InvalidArgument("WriteFloats size mismatch");
  }
  if (dtype_ == DType::kFp32) {
    return CopyIn(reinterpret_cast<const std::byte*>(values.data()),
                  SizeBytes());
  }
  const float* src = values.data();
  const DType dtype = dtype_;
  return ForEachSpan(*this, [src, dtype](std::byte* dst, size_t span_bytes,
                                         size_t offset) {
    ANGEL_RETURN_IF_ERROR(CheckHalfSpan(dst, span_bytes, offset));
    uint16_t* bits = reinterpret_cast<uint16_t*>(dst);
    const size_t count = span_bytes / sizeof(uint16_t);
    const float* from = src + offset / sizeof(uint16_t);
    if (dtype == DType::kFp16) {
      simd::FloatsToHalfBits(from, bits, count);
    } else {
      for (size_t i = 0; i < count; ++i) {
        bits[i] = util::FloatToBFloat16Bits(from[i]);
      }
    }
    return util::Status::OK();
  });
}

}  // namespace angelptm::core
