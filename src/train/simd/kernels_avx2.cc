#include "train/simd/kernels_avx2.h"

// The only translation unit built with -mavx2 -mfma -mf16c (scoped in
// src/CMakeLists.txt) and the only place <immintrin.h> may be included
// (enforced by scripts/lint.py rule `simd-include`). Everything here is a
// leaf function: no STL containers, no inline helpers from shared headers,
// so AVX2 codegen cannot escape into TUs that must stay runnable on
// pre-AVX2 hosts. (util/half.h is included only for its two out-of-line
// scalar codec functions, which the fp16 codec calls for NaN/Inf lanes.)

#if defined(__AVX2__) && defined(__FMA__) && defined(__F16C__)

#include <immintrin.h>

#include <cfloat>
#include <cmath>
#include <cstring>

#include "util/half.h"

namespace angelptm::simd::avx2 {
namespace {

// ---- vector exp/tanh --------------------------------------------------
//
// Cephes-style exp polynomial (the classic avx_mathfun coefficients),
// ~2 ulp over the clamped range. tanh comes from exp via
// tanh(u) = (e^{2u} - 1) / (e^{2u} + 1), stable at both saturated ends
// because the exp argument is clamped.

inline __m256 Exp8(__m256 x) {
  const __m256 exp_hi = _mm256_set1_ps(88.3762626647950f);
  const __m256 exp_lo = _mm256_set1_ps(-88.3762626647949f);
  const __m256 log2ef = _mm256_set1_ps(1.44269504088896341f);
  const __m256 c1 = _mm256_set1_ps(0.693359375f);
  const __m256 c2 = _mm256_set1_ps(-2.12194440e-4f);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 half = _mm256_set1_ps(0.5f);

  x = _mm256_min_ps(x, exp_hi);
  x = _mm256_max_ps(x, exp_lo);

  // Split x = fx * ln2 + r with fx integral.
  __m256 fx = _mm256_fmadd_ps(x, log2ef, half);
  fx = _mm256_floor_ps(fx);
  x = _mm256_fnmadd_ps(fx, c1, x);
  x = _mm256_fnmadd_ps(fx, c2, x);

  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_fmadd_ps(y, z, x);
  y = _mm256_add_ps(y, one);

  // 2^fx via the float exponent field.
  const __m256i n = _mm256_cvtps_epi32(fx);
  const __m256i pow2n =
      _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(pow2n));
}

inline __m256 Tanh8(__m256 u) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e2 = Exp8(_mm256_add_ps(u, u));
  return _mm256_div_ps(_mm256_sub_ps(e2, one), _mm256_add_ps(e2, one));
}

// GeLU (tanh approximation) constants, matching train::kernels.cc.
inline __m256 GeluFwd8(__m256 x) {
  const __m256 c = _mm256_set1_ps(0.7978845608028654f);   // sqrt(2/pi)
  const __m256 a = _mm256_set1_ps(0.044715f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 x2 = _mm256_mul_ps(x, x);
  const __m256 inner =
      _mm256_mul_ps(c, _mm256_fmadd_ps(_mm256_mul_ps(a, x2), x, x));
  const __m256 t = Tanh8(inner);
  return _mm256_mul_ps(_mm256_mul_ps(half, x), _mm256_add_ps(one, t));
}

// gelu'(x) = 0.5(1+t) + 0.5 x (1-t^2) c (1 + 3a x^2), t = tanh(inner).
inline __m256 GeluGrad8(__m256 x) {
  const __m256 c = _mm256_set1_ps(0.7978845608028654f);
  const __m256 a = _mm256_set1_ps(0.044715f);
  const __m256 three_a = _mm256_set1_ps(3.0f * 0.044715f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 x2 = _mm256_mul_ps(x, x);
  const __m256 inner =
      _mm256_mul_ps(c, _mm256_fmadd_ps(_mm256_mul_ps(a, x2), x, x));
  const __m256 t = Tanh8(inner);
  const __m256 du = _mm256_mul_ps(c, _mm256_fmadd_ps(three_a, x2, one));
  const __m256 sech2 = _mm256_fnmadd_ps(t, t, one);  // 1 - t^2
  const __m256 lhs = _mm256_mul_ps(half, _mm256_add_ps(one, t));
  return _mm256_fmadd_ps(
      _mm256_mul_ps(_mm256_mul_ps(half, x), sech2), du, lhs);
}

// Deterministic horizontal sum: lanes converted to double and added in
// lane order (0..7), independent of how the vector was produced.
inline double HSumD(__m256 v) {
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, v);
  double total = 0.0;
  for (int i = 0; i < 8; ++i) total += double(lanes[i]);
  return total;
}

inline float HMax(__m256 v) {
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, v);
  float best = lanes[0];
  for (int i = 1; i < 8; ++i) best = lanes[i] > best ? lanes[i] : best;
  return best;
}

// Copies the <8 element tail into a padded lane buffer (rest = `fill`),
// so tails run through the exact same vector math as full blocks.
inline __m256 LoadTail(const float* p, size_t count, float fill) {
  alignas(32) float buf[8];
  for (size_t i = 0; i < 8; ++i) buf[i] = i < count ? p[i] : fill;
  return _mm256_load_ps(buf);
}

inline void StoreTail(float* p, size_t count, __m256 v) {
  alignas(32) float buf[8];
  _mm256_store_ps(buf, v);
  for (size_t i = 0; i < count; ++i) p[i] = buf[i];
}

// ---- GEMM micro-kernel ------------------------------------------------

// C_tile(6x16, leading dimension ldc) += panel_a * panel_b over kc steps.
// 12 accumulators + 2 B vectors + 1 A broadcast = 15 of 16 YMM registers.
void MicroKernel6x16(const float* pa, const float* pb, size_t kc, float* c,
                     size_t ldc) {
  __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
  __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
  __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
  __m256 c40 = _mm256_setzero_ps(), c41 = _mm256_setzero_ps();
  __m256 c50 = _mm256_setzero_ps(), c51 = _mm256_setzero_ps();
  for (size_t p = 0; p < kc; ++p) {
    const __m256 b0 = _mm256_load_ps(pb);
    const __m256 b1 = _mm256_load_ps(pb + 8);
    __m256 a;
    a = _mm256_broadcast_ss(pa + 0);
    c00 = _mm256_fmadd_ps(a, b0, c00);
    c01 = _mm256_fmadd_ps(a, b1, c01);
    a = _mm256_broadcast_ss(pa + 1);
    c10 = _mm256_fmadd_ps(a, b0, c10);
    c11 = _mm256_fmadd_ps(a, b1, c11);
    a = _mm256_broadcast_ss(pa + 2);
    c20 = _mm256_fmadd_ps(a, b0, c20);
    c21 = _mm256_fmadd_ps(a, b1, c21);
    a = _mm256_broadcast_ss(pa + 3);
    c30 = _mm256_fmadd_ps(a, b0, c30);
    c31 = _mm256_fmadd_ps(a, b1, c31);
    a = _mm256_broadcast_ss(pa + 4);
    c40 = _mm256_fmadd_ps(a, b0, c40);
    c41 = _mm256_fmadd_ps(a, b1, c41);
    a = _mm256_broadcast_ss(pa + 5);
    c50 = _mm256_fmadd_ps(a, b0, c50);
    c51 = _mm256_fmadd_ps(a, b1, c51);
    pa += kMr;
    pb += kNr;
  }
  float* r0 = c;
  float* r1 = c + ldc;
  float* r2 = c + 2 * ldc;
  float* r3 = c + 3 * ldc;
  float* r4 = c + 4 * ldc;
  float* r5 = c + 5 * ldc;
  _mm256_storeu_ps(r0, _mm256_add_ps(_mm256_loadu_ps(r0), c00));
  _mm256_storeu_ps(r0 + 8, _mm256_add_ps(_mm256_loadu_ps(r0 + 8), c01));
  _mm256_storeu_ps(r1, _mm256_add_ps(_mm256_loadu_ps(r1), c10));
  _mm256_storeu_ps(r1 + 8, _mm256_add_ps(_mm256_loadu_ps(r1 + 8), c11));
  _mm256_storeu_ps(r2, _mm256_add_ps(_mm256_loadu_ps(r2), c20));
  _mm256_storeu_ps(r2 + 8, _mm256_add_ps(_mm256_loadu_ps(r2 + 8), c21));
  _mm256_storeu_ps(r3, _mm256_add_ps(_mm256_loadu_ps(r3), c30));
  _mm256_storeu_ps(r3 + 8, _mm256_add_ps(_mm256_loadu_ps(r3 + 8), c31));
  _mm256_storeu_ps(r4, _mm256_add_ps(_mm256_loadu_ps(r4), c40));
  _mm256_storeu_ps(r4 + 8, _mm256_add_ps(_mm256_loadu_ps(r4 + 8), c41));
  _mm256_storeu_ps(r5, _mm256_add_ps(_mm256_loadu_ps(r5), c50));
  _mm256_storeu_ps(r5 + 8, _mm256_add_ps(_mm256_loadu_ps(r5 + 8), c51));
}

// Edge variant: runs the full-tile kernel into a zeroed local tile, then
// adds back only the valid mr x nr region. The padded packing lanes are
// zero, so the extra lanes contribute nothing.
void MicroKernelEdge(const float* pa, const float* pb, size_t kc, float* c,
                     size_t ldc, size_t mr, size_t nr) {
  alignas(32) float tile[kMr * kNr];
  std::memset(tile, 0, sizeof(tile));
  MicroKernel6x16(pa, pb, kc, tile, kNr);
  for (size_t r = 0; r < mr; ++r) {
    for (size_t j = 0; j < nr; ++j) c[r * ldc + j] += tile[r * kNr + j];
  }
}

}  // namespace

bool Compiled() { return true; }

void PackA(const float* a, size_t rs, size_t cs, size_t mc, size_t kc,
           float* out) {
  for (size_t ir = 0; ir < mc; ir += kMr) {
    const size_t mr = mc - ir < kMr ? mc - ir : kMr;
    const float* block = a + ir * rs;
    if (mr == kMr && rs == 1) {
      // Contiguous rows (the TransA orientation): each k-step is a
      // 6-float copy.
      for (size_t p = 0; p < kc; ++p) {
        const float* src = block + p * cs;
        out[0] = src[0];
        out[1] = src[1];
        out[2] = src[2];
        out[3] = src[3];
        out[4] = src[4];
        out[5] = src[5];
        out += kMr;
      }
      continue;
    }
    for (size_t p = 0; p < kc; ++p) {
      const float* src = block + p * cs;
      size_t r = 0;
      for (; r < mr; ++r) out[r] = src[r * rs];
      for (; r < kMr; ++r) out[r] = 0.0f;
      out += kMr;
    }
  }
}

void PackB(const float* b, size_t rs, size_t cs, size_t kc, size_t nc,
           float* out) {
  for (size_t jr = 0; jr < nc; jr += kNr) {
    const size_t nr = nc - jr < kNr ? nc - jr : kNr;
    const float* block = b + jr * cs;
    if (nr == kNr && cs == 1) {
      // Contiguous columns (the untransposed orientation): two vector
      // copies per k-step.
      for (size_t p = 0; p < kc; ++p) {
        const float* src = block + p * rs;
        _mm256_store_ps(out, _mm256_loadu_ps(src));
        _mm256_store_ps(out + 8, _mm256_loadu_ps(src + 8));
        out += kNr;
      }
      continue;
    }
    for (size_t p = 0; p < kc; ++p) {
      const float* src = block + p * rs;
      size_t j = 0;
      for (; j < nr; ++j) out[j] = src[j * cs];
      for (; j < kNr; ++j) out[j] = 0.0f;
      out += kNr;
    }
  }
}

void MacroKernel(const float* packed_a, const float* packed_b, float* c,
                 size_t ldc, size_t mc, size_t kc, size_t nc) {
  for (size_t jr = 0; jr < nc; jr += kNr) {
    const size_t nr = nc - jr < kNr ? nc - jr : kNr;
    const float* pb = packed_b + (jr / kNr) * kNr * kc;
    for (size_t ir = 0; ir < mc; ir += kMr) {
      const size_t mr = mc - ir < kMr ? mc - ir : kMr;
      const float* pa = packed_a + (ir / kMr) * kMr * kc;
      float* tile = c + ir * ldc + jr;
      if (mr == kMr && nr == kNr) {
        MicroKernel6x16(pa, pb, kc, tile, ldc);
      } else {
        MicroKernelEdge(pa, pb, kc, tile, ldc, mr, nr);
      }
    }
  }
}

void GeluBlock(const float* x, float* y, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, GeluFwd8(_mm256_loadu_ps(x + i)));
  }
  if (i < n) StoreTail(y + i, n - i, GeluFwd8(LoadTail(x + i, n - i, 0.0f)));
}

void GeluBackwardBlock(const float* x, const float* dy, float* dx,
                       size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 g = GeluGrad8(_mm256_loadu_ps(x + i));
    _mm256_storeu_ps(dx + i, _mm256_mul_ps(_mm256_loadu_ps(dy + i), g));
  }
  if (i < n) {
    const __m256 g = GeluGrad8(LoadTail(x + i, n - i, 0.0f));
    StoreTail(dx + i, n - i,
              _mm256_mul_ps(LoadTail(dy + i, n - i, 0.0f), g));
  }
}

void AddBiasGeluRows(float* z, const float* bias, float* y, size_t rows,
                     size_t n) {
  for (size_t r = 0; r < rows; ++r) {
    float* z_row = z + r * n;
    float* y_row = y + r * n;
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256 zj = _mm256_add_ps(_mm256_loadu_ps(z_row + j),
                                      _mm256_loadu_ps(bias + j));
      _mm256_storeu_ps(z_row + j, zj);
      _mm256_storeu_ps(y_row + j, GeluFwd8(zj));
    }
    if (j < n) {
      const size_t tail = n - j;
      const __m256 zj = _mm256_add_ps(LoadTail(z_row + j, tail, 0.0f),
                                      LoadTail(bias + j, tail, 0.0f));
      StoreTail(z_row + j, tail, zj);
      StoreTail(y_row + j, tail, GeluFwd8(zj));
    }
  }
}

void AddBiasGeluBackwardCols(const float* z, const float* dy, float* dz,
                             float* dbias, size_t m, size_t n, size_t j0,
                             size_t j1) {
  for (size_t j = j0; j < j1; ++j) dbias[j] = 0.0f;
  for (size_t i = 0; i < m; ++i) {
    const float* z_row = z + i * n;
    const float* dy_row = dy + i * n;
    float* dz_row = dz + i * n;
    size_t j = j0;
    for (; j + 8 <= j1; j += 8) {
      const __m256 g = GeluGrad8(_mm256_loadu_ps(z_row + j));
      const __m256 d = _mm256_mul_ps(_mm256_loadu_ps(dy_row + j), g);
      _mm256_storeu_ps(dz_row + j, d);
      _mm256_storeu_ps(dbias + j,
                       _mm256_add_ps(_mm256_loadu_ps(dbias + j), d));
    }
    if (j < j1) {
      const size_t tail = j1 - j;
      const __m256 g = GeluGrad8(LoadTail(z_row + j, tail, 0.0f));
      const __m256 d = _mm256_mul_ps(LoadTail(dy_row + j, tail, 0.0f), g);
      StoreTail(dz_row + j, tail, d);
      StoreTail(dbias + j, tail,
                _mm256_add_ps(LoadTail(dbias + j, tail, 0.0f), d));
    }
  }
}

void LayerNormRows(const float* x, const float* gamma, const float* beta,
                   float* y, float* mean, float* rstd, size_t rows,
                   size_t n) {
  const double eps = 1e-5;
  for (size_t r = 0; r < rows; ++r) {
    const float* row = x + r * n;
    __m256 acc = _mm256_setzero_ps();
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      acc = _mm256_add_ps(acc, _mm256_loadu_ps(row + j));
    }
    if (j < n) acc = _mm256_add_ps(acc, LoadTail(row + j, n - j, 0.0f));
    const double mu = HSumD(acc) / double(n);

    const __m256 vmu = _mm256_set1_ps(float(mu));
    __m256 vacc = _mm256_setzero_ps();
    j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(row + j), vmu);
      vacc = _mm256_fmadd_ps(d, d, vacc);
    }
    if (j < n) {
      // Padding with mu makes the padded lanes' deviation exactly zero.
      const __m256 d =
          _mm256_sub_ps(LoadTail(row + j, n - j, float(mu)), vmu);
      vacc = _mm256_fmadd_ps(d, d, vacc);
    }
    const double var = HSumD(vacc) / double(n);
    const double rs = 1.0 / std::sqrt(var + eps);
    mean[r] = float(mu);
    rstd[r] = float(rs);

    const __m256 vrs = _mm256_set1_ps(float(rs));
    float* out = y + r * n;
    j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256 xhat = _mm256_mul_ps(
          _mm256_sub_ps(_mm256_loadu_ps(row + j), vmu), vrs);
      _mm256_storeu_ps(out + j,
                       _mm256_fmadd_ps(xhat, _mm256_loadu_ps(gamma + j),
                                       _mm256_loadu_ps(beta + j)));
    }
    for (; j < n; ++j) {
      out[j] = (row[j] - float(mu)) * float(rs) * gamma[j] + beta[j];
    }
  }
}

void LayerNormBackwardRows(const float* x, const float* gamma,
                           const float* dy, const float* mean,
                           const float* rstd, float* dx, float* pgamma,
                           float* pbeta, size_t rows, size_t n) {
  for (size_t r = 0; r < rows; ++r) {
    const float* x_row = x + r * n;
    const float* dy_row = dy + r * n;
    float* dx_row = dx + r * n;
    const float mu = mean[r];
    const float rs = rstd[r];
    const __m256 vmu = _mm256_set1_ps(mu);
    const __m256 vrs = _mm256_set1_ps(rs);

    __m256 acc_dyh = _mm256_setzero_ps();
    __m256 acc_dyh_xhat = _mm256_setzero_ps();
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256 xv = _mm256_loadu_ps(x_row + j);
      const __m256 dyv = _mm256_loadu_ps(dy_row + j);
      const __m256 xhat = _mm256_mul_ps(_mm256_sub_ps(xv, vmu), vrs);
      const __m256 dyh = _mm256_mul_ps(dyv, _mm256_loadu_ps(gamma + j));
      acc_dyh = _mm256_add_ps(acc_dyh, dyh);
      acc_dyh_xhat = _mm256_fmadd_ps(dyh, xhat, acc_dyh_xhat);
      _mm256_storeu_ps(
          pgamma + j,
          _mm256_fmadd_ps(dyv, xhat, _mm256_loadu_ps(pgamma + j)));
      _mm256_storeu_ps(pbeta + j,
                       _mm256_add_ps(_mm256_loadu_ps(pbeta + j), dyv));
    }
    double sum_dyh = HSumD(acc_dyh);
    double sum_dyh_xhat = HSumD(acc_dyh_xhat);
    for (; j < n; ++j) {
      const float xhat = (x_row[j] - mu) * rs;
      const float dyh = dy_row[j] * gamma[j];
      sum_dyh += double(dyh);
      sum_dyh_xhat += double(dyh) * xhat;
      pgamma[j] += dy_row[j] * xhat;
      pbeta[j] += dy_row[j];
    }

    const __m256 s1 = _mm256_set1_ps(float(sum_dyh / double(n)));
    const __m256 s2 = _mm256_set1_ps(float(sum_dyh_xhat / double(n)));
    j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256 xv = _mm256_loadu_ps(x_row + j);
      const __m256 xhat = _mm256_mul_ps(_mm256_sub_ps(xv, vmu), vrs);
      const __m256 dyh = _mm256_mul_ps(_mm256_loadu_ps(dy_row + j),
                                       _mm256_loadu_ps(gamma + j));
      const __m256 inner =
          _mm256_fnmadd_ps(xhat, s2, _mm256_sub_ps(dyh, s1));
      _mm256_storeu_ps(dx_row + j, _mm256_mul_ps(vrs, inner));
    }
    for (; j < n; ++j) {
      const float xhat = (x_row[j] - mu) * rs;
      const float dyh = dy_row[j] * gamma[j];
      dx_row[j] = rs * (dyh - float(sum_dyh / double(n)) -
                        xhat * float(sum_dyh_xhat / double(n)));
    }
  }
}

double SoftmaxXentRows(const float* logits, const int* labels, float* grad,
                       size_t rows, size_t n, double inv_m) {
  double loss = 0.0;
  const float neg_huge = -FLT_MAX;
  for (size_t r = 0; r < rows; ++r) {
    const float* row = logits + r * n;
    float* grad_row = grad + r * n;

    __m256 vmax = _mm256_set1_ps(neg_huge);
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(row + j));
    }
    if (j < n) {
      vmax = _mm256_max_ps(vmax, LoadTail(row + j, n - j, neg_huge));
    }
    const float max_logit = HMax(vmax);

    // exp(x - max) is stored into grad as the staging buffer; padded tail
    // lanes use a very negative argument so their exp is ~0.
    const __m256 vm = _mm256_set1_ps(max_logit);
    __m256 acc = _mm256_setzero_ps();
    j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256 e = Exp8(_mm256_sub_ps(_mm256_loadu_ps(row + j), vm));
      _mm256_storeu_ps(grad_row + j, e);
      acc = _mm256_add_ps(acc, e);
    }
    if (j < n) {
      const size_t tail = n - j;
      const __m256 e =
          Exp8(_mm256_sub_ps(LoadTail(row + j, tail, neg_huge), vm));
      StoreTail(grad_row + j, tail, e);
      // Lanes beyond `tail` hold exp(~ -inf) ~= 0; add the vector whole —
      // the padding contributes (denormal) zeros.
      acc = _mm256_add_ps(acc, e);
    }
    const double denom = HSumD(acc);

    const int label = labels[r];
    loss += -(double(row[label]) - double(max_logit) - std::log(denom));

    const __m256 vdenom = _mm256_set1_ps(float(denom));
    const __m256 vinv_m = _mm256_set1_ps(float(inv_m));
    j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256 p = _mm256_div_ps(_mm256_loadu_ps(grad_row + j), vdenom);
      _mm256_storeu_ps(grad_row + j, _mm256_mul_ps(p, vinv_m));
    }
    for (; j < n; ++j) {
      grad_row[j] = grad_row[j] / float(denom) * float(inv_m);
    }
    grad_row[label] -= float(inv_m);
  }
  return loss;
}

void AdamUpdateBlock(float* params, float* m, float* v, const float* grads,
                     size_t begin, size_t end, float lr, float beta1,
                     float beta2, float epsilon, float weight_decay,
                     float inv_bc1, float inv_bc2) {
  const float omb1 = 1.0f - beta1;
  const float omb2 = 1.0f - beta2;
  // Scalar lane mirroring the vector math op-for-op (fmaf == vfmadd,
  // sqrtf/division are IEEE-exact), so head/tail elements compute the
  // same bits the vector loop would — any partition of the range yields
  // bitwise identical results.
  auto scalar_lane = [&](size_t i) {
    float g = grads[i];
    if (weight_decay != 0.0f) g = fmaf(weight_decay, params[i], g);
    const float mi = fmaf(beta1, m[i], omb1 * g);
    const float vi = fmaf(beta2, v[i], omb2 * (g * g));
    m[i] = mi;
    v[i] = vi;
    const float m_hat = mi * inv_bc1;
    const float v_hat = vi * inv_bc2;
    params[i] -= (lr * m_hat) / (sqrtf(v_hat) + epsilon);
  };

  // Align the vector loop to absolute 8-element blocks.
  size_t i = begin;
  const size_t aligned_begin = (begin + 7) & ~size_t(7);
  const size_t head_end = aligned_begin < end ? aligned_begin : end;
  for (; i < head_end; ++i) scalar_lane(i);
  const size_t vec_end = i + ((end - i) & ~size_t(7));

  const __m256 vb1 = _mm256_set1_ps(beta1);
  const __m256 vb2 = _mm256_set1_ps(beta2);
  const __m256 vomb1 = _mm256_set1_ps(omb1);
  const __m256 vomb2 = _mm256_set1_ps(omb2);
  const __m256 vlr = _mm256_set1_ps(lr);
  const __m256 veps = _mm256_set1_ps(epsilon);
  const __m256 vwd = _mm256_set1_ps(weight_decay);
  const __m256 vibc1 = _mm256_set1_ps(inv_bc1);
  const __m256 vibc2 = _mm256_set1_ps(inv_bc2);
  const bool has_wd = weight_decay != 0.0f;
  for (; i < vec_end; i += 8) {
    __m256 g = _mm256_loadu_ps(grads + i);
    const __m256 p = _mm256_loadu_ps(params + i);
    if (has_wd) g = _mm256_fmadd_ps(vwd, p, g);
    const __m256 mi =
        _mm256_fmadd_ps(vb1, _mm256_loadu_ps(m + i), _mm256_mul_ps(vomb1, g));
    const __m256 vi = _mm256_fmadd_ps(
        vb2, _mm256_loadu_ps(v + i), _mm256_mul_ps(vomb2, _mm256_mul_ps(g, g)));
    _mm256_storeu_ps(m + i, mi);
    _mm256_storeu_ps(v + i, vi);
    const __m256 m_hat = _mm256_mul_ps(mi, vibc1);
    const __m256 v_hat = _mm256_mul_ps(vi, vibc2);
    const __m256 denom = _mm256_add_ps(_mm256_sqrt_ps(v_hat), veps);
    const __m256 upd = _mm256_div_ps(_mm256_mul_ps(vlr, m_hat), denom);
    _mm256_storeu_ps(params + i, _mm256_sub_ps(p, upd));
  }
  for (; i < end; ++i) scalar_lane(i);
}

void FloatsToHalfBits(const float* src, uint16_t* dst, size_t n) {
  // vcvtps2ph with an explicit round-to-nearest-even immediate (MXCSR is
  // not consulted) agrees with util::FloatToHalfBits on every finite input,
  // overflow to Inf and subnormal results included. It keeps NaN payload
  // bits the scalar reference drops, so lanes with an all-ones exponent
  // (NaN and Inf) are redone by the reference.
  const __m256i exp_mask = _mm256_set1_epi32(0x7F800000);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(src + i);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT |
                                            _MM_FROUND_NO_EXC));
    const __m256i exponent =
        _mm256_and_si256(_mm256_castps_si256(v), exp_mask);
    const int special = _mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(exponent, exp_mask)));
    if (special != 0) {
      for (size_t k = 0; k < 8; ++k) {
        if ((special >> k) & 1) {
          dst[i + k] = util::FloatToHalfBits(src[i + k]);
        }
      }
    }
  }
  for (; i < n; ++i) dst[i] = util::FloatToHalfBits(src[i]);
}

void HalfBitsToFloats(const uint16_t* src, float* dst, size_t n) {
  // vcvtph2ps is exact for every finite half, subnormals included, but
  // quiets signalling NaNs the scalar reference passes through unchanged;
  // lanes with an all-ones exponent (NaN and Inf) are redone by the
  // reference.
  const __m128i exp_mask = _mm_set1_epi16(0x7C00);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
    const int special = _mm_movemask_epi8(
        _mm_cmpeq_epi16(_mm_and_si128(h, exp_mask), exp_mask));
    if (special != 0) {
      for (size_t k = 0; k < 8; ++k) {
        if ((special >> (2 * k)) & 1) {
          dst[i + k] = util::HalfBitsToFloat(src[i + k]);
        }
      }
    }
  }
  for (; i < n; ++i) dst[i] = util::HalfBitsToFloat(src[i]);
}

}  // namespace angelptm::simd::avx2

#else  // !(__AVX2__ && __FMA__ && __F16C__)

#include <cstdio>
#include <cstdlib>

// Stub definitions so the library links on builds without AVX2 support.
// Dispatch() never selects kAvx2 when Compiled() is false, so reaching a
// stub is a programming error, not a runtime condition.

namespace angelptm::simd::avx2 {
namespace {

[[noreturn]] void Unavailable(const char* fn) {
  std::fprintf(stderr,
               "angelptm: simd::avx2::%s called but AVX2 kernels were not "
               "compiled into this binary\n",
               fn);
  std::abort();
}

}  // namespace

bool Compiled() { return false; }

void PackA(const float*, size_t, size_t, size_t, size_t, float*) {
  Unavailable("PackA");
}
void PackB(const float*, size_t, size_t, size_t, size_t, float*) {
  Unavailable("PackB");
}
void MacroKernel(const float*, const float*, float*, size_t, size_t, size_t,
                 size_t) {
  Unavailable("MacroKernel");
}
void GeluBlock(const float*, float*, size_t) { Unavailable("GeluBlock"); }
void GeluBackwardBlock(const float*, const float*, float*, size_t) {
  Unavailable("GeluBackwardBlock");
}
void AddBiasGeluRows(float*, const float*, float*, size_t, size_t) {
  Unavailable("AddBiasGeluRows");
}
void AddBiasGeluBackwardCols(const float*, const float*, float*, float*,
                             size_t, size_t, size_t, size_t) {
  Unavailable("AddBiasGeluBackwardCols");
}
void LayerNormRows(const float*, const float*, const float*, float*, float*,
                   float*, size_t, size_t) {
  Unavailable("LayerNormRows");
}
void LayerNormBackwardRows(const float*, const float*, const float*,
                           const float*, const float*, float*, float*,
                           float*, size_t, size_t) {
  Unavailable("LayerNormBackwardRows");
}
double SoftmaxXentRows(const float*, const int*, float*, size_t, size_t,
                       double) {
  Unavailable("SoftmaxXentRows");
}
void AdamUpdateBlock(float*, float*, float*, const float*, size_t, size_t,
                     float, float, float, float, float, float, float) {
  Unavailable("AdamUpdateBlock");
}
void FloatsToHalfBits(const float*, uint16_t*, size_t) {
  Unavailable("FloatsToHalfBits");
}
void HalfBitsToFloats(const uint16_t*, float*, size_t) {
  Unavailable("HalfBitsToFloats");
}

}  // namespace angelptm::simd::avx2

#endif  // __AVX2__ && __FMA__ && __F16C__
