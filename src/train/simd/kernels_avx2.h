#ifndef ANGELPTM_TRAIN_SIMD_KERNELS_AVX2_H_
#define ANGELPTM_TRAIN_SIMD_KERNELS_AVX2_H_

#include <cstddef>
#include <cstdint>

namespace angelptm::simd::avx2 {

/// AVX2/FMA/F16C leaf kernels. This header is plain C++ and can be
/// included anywhere; only kernels_avx2.cc is compiled with -mavx2 -mfma
/// -mf16c, and it deliberately contains *leaf* block functions with C-like
/// signatures — no STL, no shared inline helpers — so no AVX2 code can leak
/// into other translation units through inline-function comdat folding.
/// Callers must route through simd::Dispatch(): invoking any of these when
/// `Supported(IsaPath::kAvx2)` is false is a programming error (the stubs
/// abort).
///
/// The packed GEMM splits into PackA/PackB/MacroKernel so the macro-tile
/// grid loop (and its util::ParallelFor integration) lives in
/// train/kernels.cc with the scalar path; see DESIGN.md §11 for the
/// layout.

/// True when this binary contains the real AVX2 implementations (x86-64
/// build with a compiler that accepted -mavx2 -mfma -mf16c), false when the
/// TU compiled as stubs.
bool Compiled();

/// Micro-tile geometry: each micro-kernel invocation computes a
/// kMr x kNr block of C with 12 YMM accumulators (kNr = two 8-float
/// vectors).
inline constexpr size_t kMr = 6;
inline constexpr size_t kNr = 16;

/// Packs the mc x kc block of A whose (row, col) element lives at
/// a[row * rs + col * cs] into micro-panels of kMr rows: panel t holds
/// rows [t*kMr, t*kMr + kMr) stored column-major (kMr consecutive floats
/// per k-step), zero-padded past mc. `out` needs
/// RoundUp(mc, kMr) * kc floats. Transposed GEMM operands are handled
/// here, by strides, so the micro-kernel only ever sees one layout.
void PackA(const float* a, size_t rs, size_t cs, size_t mc, size_t kc,
           float* out);

/// Packs the kc x nc block of B (element (row, col) at
/// b[row * rs + col * cs]) into micro-panels of kNr columns: panel u holds
/// columns [u*kNr, u*kNr + kNr) as kNr consecutive floats per k-step,
/// zero-padded past nc. `out` needs kc * RoundUp(nc, kNr) floats.
void PackB(const float* b, size_t rs, size_t cs, size_t kc, size_t nc,
           float* out);

/// C[0:mc, 0:nc] += packed_a * packed_b, where C has leading dimension
/// ldc. Iterates the micro-tile grid; edge tiles spill through a local
/// kMr x kNr buffer. Callers zero (or pre-load) C themselves.
void MacroKernel(const float* packed_a, const float* packed_b, float* c,
                 size_t ldc, size_t mc, size_t kc, size_t nc);

/// y[i] = gelu(x[i]) (tanh approximation via a vectorized exp polynomial;
/// matches the scalar double-precision reference to ~1e-6 absolute for
/// |x| <= 10, pinned by kernel_golden_test).
void GeluBlock(const float* x, float* y, size_t n);

/// dx[i] = dy[i] * gelu'(x[i]).
void GeluBackwardBlock(const float* x, const float* dy, float* dx, size_t n);

/// Fused bias + GeLU over `rows` rows of width n: z += bias (in place,
/// stashing the pre-activation), y = gelu(z).
void AddBiasGeluRows(float* z, const float* bias, float* y, size_t rows,
                     size_t n);

/// Column slice [j0, j1) of the fused backward: dz = dy * gelu'(z) and
/// dbias[j] = sum over all m rows of dz[., j]. dbias[j0, j1) is zeroed
/// then overwritten; the caller owns the column partition, so slices never
/// overlap.
void AddBiasGeluBackwardCols(const float* z, const float* dy, float* dz,
                             float* dbias, size_t m, size_t n, size_t j0,
                             size_t j1);

/// Row-wise LayerNorm over `rows` rows (pointers pre-offset to the first
/// row of the chunk; mean/rstd likewise).
void LayerNormRows(const float* x, const float* gamma, const float* beta,
                   float* y, float* mean, float* rstd, size_t rows, size_t n);

/// Backward LayerNorm over `rows` rows: writes dx and *accumulates* the
/// column reductions into pgamma/pbeta (size n, the caller's per-chunk
/// partial buffers, which must start zeroed).
void LayerNormBackwardRows(const float* x, const float* gamma,
                           const float* dy, const float* mean,
                           const float* rstd, float* dx, float* pgamma,
                           float* pbeta, size_t rows, size_t n);

/// Softmax cross-entropy over `rows` rows (pointers pre-offset): fills
/// grad with (softmax - onehot) * inv_m and returns the *sum* of per-row
/// losses (the caller divides by the total row count).
double SoftmaxXentRows(const float* logits, const int* labels, float* grad,
                       size_t rows, size_t n, double inv_m);

/// Adam over absolute element range [begin, end) of the full arrays. The
/// vector loop is aligned to absolute 8-element blocks and the head/tail
/// scalars mirror the vector math op-for-op (fmaf/sqrtf), so any
/// partition of [0, count) — hence any thread count — produces bitwise
/// identical results. inv_bc1/inv_bc2 are the reciprocal bias
/// corrections.
void AdamUpdateBlock(float* params, float* m, float* v, const float* grads,
                     size_t begin, size_t end, float lr, float beta1,
                     float beta2, float epsilon, float weight_decay,
                     float inv_bc1, float inv_bc2);

/// F16C halves of the bulk fp16 codec (simd/half_codec.h): dst[i] =
/// util::FloatToHalfBits(src[i]) / util::HalfBitsToFloat(src[i]), bit for
/// bit, for every input. Lanes with an all-ones exponent (NaN, Inf) and the
/// <8-element tail go through those scalar functions.
void FloatsToHalfBits(const float* src, uint16_t* dst, size_t n);
void HalfBitsToFloats(const uint16_t* src, float* dst, size_t n);

}  // namespace angelptm::simd::avx2

#endif  // ANGELPTM_TRAIN_SIMD_KERNELS_AVX2_H_
