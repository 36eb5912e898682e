#include "train/simd/half_codec.h"

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "train/simd/dispatch.h"
#include "util/half.h"

namespace angelptm::simd {
namespace {

float FromBits(uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

uint32_t ToBits(float f) {
  uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

/// Float inputs whose fp16 rounding exercises every branch of the scalar
/// reference: every sign/exponent/upper-mantissa pattern (the 10 mantissa
/// bits a normal half keeps), crossed with the low 13-bit patterns that
/// decide round-to-nearest-even (exact, barely above zero, just below half,
/// exactly half, just above half, all ones), plus NaN payloads, ±Inf, the
/// overflow boundary and the subnormal/underflow boundaries.
std::vector<float> EncodeCases() {
  const uint32_t low_patterns[] = {0x0, 0x1, 0xFFF, 0x1000, 0x1001, 0x1FFF};
  std::vector<float> cases;
  for (uint32_t sign_exp = 0; sign_exp < 0x200; ++sign_exp) {
    for (uint32_t upper = 0; upper < 0x400; ++upper) {
      for (uint32_t low : low_patterns) {
        cases.push_back(FromBits((sign_exp << 23) | (upper << 13) | low));
      }
    }
  }
  // NaN payloads (quiet, signalling, payload-only-in-low-bits) and ±Inf.
  for (uint32_t sign : {0u, 0x80000000u}) {
    for (uint32_t mantissa : {0x000000u, 0x000001u, 0x001FFFu, 0x002000u,
                              0x200000u, 0x400000u, 0x7FFFFFu}) {
      cases.push_back(FromBits(sign | 0x7F800000u | mantissa));
    }
  }
  // Overflow boundary (65504 is the largest half; 65520 rounds to Inf) and
  // the subnormal/underflow boundaries around 2^-24 and 2^-25.
  for (float f : {65504.0f, 65519.996f, 65520.0f, 65536.0f, 1e30f,
                  5.9604645e-8f, 2.9802322e-8f, 2.9802326e-8f, 1e-10f,
                  6.1035156e-5f, 6.1035153e-5f}) {
    cases.push_back(f);
    cases.push_back(-f);
  }
  return cases;
}

/// Every test runs on both dispatch paths; the avx2 leg skips itself on
/// hosts or builds without AVX2+FMA+F16C.
class HalfCodecTest : public ::testing::TestWithParam<IsaPath> {
 protected:
  void SetUp() override {
    if (!Supported(GetParam())) {
      GTEST_SKIP() << IsaPathName(GetParam())
                   << " path unavailable on this host/build";
    }
    force_ = std::make_unique<ScopedForceIsa>(GetParam());
  }
  void TearDown() override { force_.reset(); }

  std::unique_ptr<ScopedForceIsa> force_;
};

INSTANTIATE_TEST_SUITE_P(
    AllIsaPaths, HalfCodecTest,
    ::testing::Values(IsaPath::kScalar, IsaPath::kAvx2),
    [](const ::testing::TestParamInfo<IsaPath>& info) {
      return IsaPathName(info.param);
    });

TEST_P(HalfCodecTest, DecodesAllHalvesBitwise) {
  std::vector<uint16_t> halves(65536);
  for (uint32_t h = 0; h < 65536; ++h) halves[h] = static_cast<uint16_t>(h);
  std::vector<float> out(halves.size());
  HalfBitsToFloats(halves.data(), out.data(), halves.size());
  for (uint32_t h = 0; h < 65536; ++h) {
    const uint32_t want = ToBits(util::HalfBitsToFloat(uint16_t(h)));
    ASSERT_EQ(ToBits(out[h]), want) << "half 0x" << std::hex << h;
  }
}

TEST_P(HalfCodecTest, EncodesRoundingPatternsBitwise) {
  const std::vector<float> cases = EncodeCases();
  std::vector<uint16_t> out(cases.size());
  FloatsToHalfBits(cases.data(), out.data(), cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    ASSERT_EQ(out[i], util::FloatToHalfBits(cases[i]))
        << "float bits 0x" << std::hex << ToBits(cases[i]);
  }
}

TEST_P(HalfCodecTest, OddLengthsAndUnalignedTails) {
  // Every length 0..40 at every start offset 0..8, inside guard words that
  // must stay untouched: the vector body, the scalar tail and the
  // special-lane fallback all land in the right elements only.
  std::vector<float> source;
  for (int i = 0; i < 64; ++i) {
    source.push_back(i % 7 == 3 ? FromBits(0x7FC00123u)  // NaN lanes.
                                : float(i) * 0.37f - 9.0f);
  }
  constexpr uint16_t kGuard = 0xBEEF;
  constexpr uint32_t kGuardBits = 0xDEADBEEF;
  for (size_t offset = 0; offset <= 8; ++offset) {
    for (size_t n = 0; n <= 40; ++n) {
      std::vector<uint16_t> halves(offset + n + 1, kGuard);
      FloatsToHalfBits(source.data() + offset, halves.data() + offset, n);
      std::vector<float> floats(offset + n + 1, FromBits(kGuardBits));
      HalfBitsToFloats(halves.data() + offset, floats.data() + offset, n);
      for (size_t i = 0; i < offset; ++i) {
        ASSERT_EQ(halves[i], kGuard);
        ASSERT_EQ(ToBits(floats[i]), kGuardBits);
      }
      for (size_t i = 0; i < n; ++i) {
        const uint16_t want = util::FloatToHalfBits(source[offset + i]);
        ASSERT_EQ(halves[offset + i], want)
            << "offset " << offset << " n " << n << " i " << i;
        ASSERT_EQ(ToBits(floats[offset + i]),
                  ToBits(util::HalfBitsToFloat(want)))
            << "offset " << offset << " n " << n << " i " << i;
      }
      ASSERT_EQ(halves[offset + n], kGuard);
      ASSERT_EQ(ToBits(floats[offset + n]), kGuardBits);
    }
  }
}

/// Full 2^32 encode sweep, ~20 s at -O2 per path: disabled in tier-1 and
/// run by `scripts/check.sh --simd` (--gtest_also_run_disabled_tests).
TEST_P(HalfCodecTest, DISABLED_EncodesEveryFloatBitwise) {
  constexpr size_t kChunk = 1 << 16;
  std::vector<float> in(kChunk);
  std::vector<uint16_t> out(kChunk);
  uint64_t mismatches = 0;
  for (uint64_t base = 0; base < (uint64_t(1) << 32); base += kChunk) {
    for (size_t i = 0; i < kChunk; ++i) in[i] = FromBits(uint32_t(base + i));
    FloatsToHalfBits(in.data(), out.data(), kChunk);
    for (size_t i = 0; i < kChunk; ++i) {
      if (out[i] != util::FloatToHalfBits(in[i])) {
        if (mismatches++ < 8) {
          ADD_FAILURE() << "float bits 0x" << std::hex << (base + i);
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace angelptm::simd
