#ifndef ANGELPTM_TRAIN_SIMD_HALF_CODEC_H_
#define ANGELPTM_TRAIN_SIMD_HALF_CODEC_H_

#include <cstddef>
#include <cstdint>

namespace angelptm::simd {

/// Bulk IEEE-754 binary16 codec for every fp16 crossing on the step path
/// (fp16 tensors, the updater's published parameter mirror). Dispatches
/// through simd::Dispatch(): the avx2 path converts 8 lanes per
/// instruction with F16C, the scalar path loops over the util:: functions.
///
/// Contract (DESIGN.md §11): both paths are bit-identical to
/// util::FloatToHalfBits / util::HalfBitsToFloat for every input — all 2^32
/// floats and all 65536 halves, NaN payloads and signalling NaNs included —
/// so switching paths never changes a training trajectory. util/half.cc
/// stays the scalar reference. `src` and `dst` must not overlap; no
/// alignment is required.
void FloatsToHalfBits(const float* src, uint16_t* dst, size_t n);
void HalfBitsToFloats(const uint16_t* src, float* dst, size_t n);

}  // namespace angelptm::simd

#endif  // ANGELPTM_TRAIN_SIMD_HALF_CODEC_H_
