#include "train/simd/half_codec.h"

#include "train/simd/dispatch.h"
#include "train/simd/kernels_avx2.h"
#include "util/half.h"

namespace angelptm::simd {

void FloatsToHalfBits(const float* src, uint16_t* dst, size_t n) {
  if (Dispatch() == IsaPath::kAvx2) {
    avx2::FloatsToHalfBits(src, dst, n);
    return;
  }
  for (size_t i = 0; i < n; ++i) dst[i] = util::FloatToHalfBits(src[i]);
}

void HalfBitsToFloats(const uint16_t* src, float* dst, size_t n) {
  if (Dispatch() == IsaPath::kAvx2) {
    avx2::HalfBitsToFloats(src, dst, n);
    return;
  }
  for (size_t i = 0; i < n; ++i) dst[i] = util::HalfBitsToFloat(src[i]);
}

}  // namespace angelptm::simd
