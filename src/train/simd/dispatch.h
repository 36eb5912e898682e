#ifndef ANGELPTM_TRAIN_SIMD_DISPATCH_H_
#define ANGELPTM_TRAIN_SIMD_DISPATCH_H_

namespace angelptm::simd {

/// Instruction-set paths the compute kernels can run on. `kScalar` is the
/// portable cache-blocked C++ path that exists on every platform; `kAvx2`
/// is the packed AVX2/FMA micro-kernel path plus the F16C fp16 codec
/// (x86-64 only, compiled in a single translation unit with -mavx2 -mfma
/// -mf16c).
enum class IsaPath { kScalar, kAvx2 };

/// The path the kernels dispatch to. Resolution order (first match wins):
///
///   1. A test/bench override installed via ScopedForceIsa.
///   2. The ANGELPTM_SIMD environment variable ("scalar" or "avx2"), read
///      once at first use. Requesting "avx2" on a host or build without
///      AVX2+FMA+F16C logs a warning and falls back to scalar — it never
///      traps.
///   3. Runtime CPUID: AVX2+FMA+F16C present (and the AVX2 TU compiled in)
///      selects kAvx2, everything else selects kScalar.
///
/// The result of steps 2–3 is computed once and cached, so the dispatch
/// check on a kernel hot path is one relaxed atomic load and a compare.
IsaPath Dispatch();

/// True when `path` can actually execute on this host *and* was compiled
/// into this binary. kScalar is always supported.
bool Supported(IsaPath path);

/// "scalar" or "avx2" — stable strings for logs, JSON, and test names.
const char* IsaPathName(IsaPath path);

/// RAII dispatch override for tests and benches: forces Dispatch() to
/// return `path` for the object's lifetime (taking precedence over the
/// environment variable), then restores the previous state. Forcing an
/// unsupported path is a programming error; callers must check
/// Supported() first (the golden tests GTEST_SKIP instead). Not
/// thread-safe against concurrent ScopedForceIsa construction; kernels
/// already running keep the path they read.
class ScopedForceIsa {
 public:
  explicit ScopedForceIsa(IsaPath path);
  ~ScopedForceIsa();

  ScopedForceIsa(const ScopedForceIsa&) = delete;
  ScopedForceIsa& operator=(const ScopedForceIsa&) = delete;

 private:
  int previous_;  // Encoded override state (see dispatch.cc).
};

}  // namespace angelptm::simd

#endif  // ANGELPTM_TRAIN_SIMD_DISPATCH_H_
