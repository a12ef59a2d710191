// Kernel correctness suite for the runtime-dispatched SIMD distance kernels.
//
// Every test here runs under BOTH dispatch outcomes: ci.sh executes this
// binary once normally (AVX2 on capable hardware) and once with
// ICCACHE_FORCE_SCALAR=1, in which case the dispatched kernels ARE the scalar
// references and the agreement checks become identities.
#include "src/common/simd.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace iccache {
namespace {

// Dims exercising every vector-loop shape: sub-lane (1..8), one short of a
// full 128-bit/256-bit multiple, exact multiples, and a ragged tail.
const size_t kDims[] = {1, 2, 3, 4, 5, 6, 7, 8, 127, 128, 131};

std::vector<float> RandomVec(Rng& rng, size_t n) {
  std::vector<float> v(n);
  for (auto& x : v) {
    x = static_cast<float>(rng.Normal());
  }
  return v;
}

// Relative-plus-absolute tolerance for float-accumulated kernels: AVX2 (8-lane
// FMA) and the scalar 4-accumulator unroll round differently.
void ExpectClose(double got, double want, double n) {
  const double tol = 1e-5 * std::max(1.0, std::fabs(want)) + 1e-6 * std::sqrt(n);
  EXPECT_NEAR(got, want, tol);
}

TEST(SimdDispatchTest, LevelIsStableAndNamed) {
  const simd::KernelLevel level = simd::ActiveKernelLevel();
  EXPECT_EQ(level, simd::ActiveKernelLevel());  // fixed per process
  const std::string name = simd::KernelLevelName(level);
  EXPECT_TRUE(name == "scalar" || name == "avx2");
}

TEST(SimdDispatchTest, ResolverHonorsForceScalar) {
  EXPECT_EQ(simd::ResolveKernelLevel(true, true), simd::KernelLevel::kScalar);
  EXPECT_EQ(simd::ResolveKernelLevel(false, false), simd::KernelLevel::kScalar);
  EXPECT_EQ(simd::ResolveKernelLevel(true, false), simd::KernelLevel::kAvx2);
}

TEST(SimdDispatchTest, EnvOverrideIsRespected) {
  // The dispatcher latched the env at first use; assert the latch agrees with
  // the environment this process actually runs under.
  const char* env = std::getenv("ICCACHE_FORCE_SCALAR");
  const bool forced = env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
  EXPECT_EQ(simd::ScalarForced(), forced);
  if (forced) {
    EXPECT_EQ(simd::ActiveKernelLevel(), simd::KernelLevel::kScalar);
  }
}

TEST(SimdKernelTest, DotMatchesScalarReferenceAcrossDims) {
  Rng rng(0x51d07);
  for (size_t n : kDims) {
    for (int trial = 0; trial < 8; ++trial) {
      const std::vector<float> a = RandomVec(rng, n);
      const std::vector<float> b = RandomVec(rng, n);
      ExpectClose(simd::Dot(a.data(), b.data(), n),
                  simd::ScalarDot(a.data(), b.data(), n), static_cast<double>(n));
    }
  }
}

TEST(SimdKernelTest, L2SqMatchesScalarReferenceAcrossDims) {
  Rng rng(0x51d12);
  for (size_t n : kDims) {
    for (int trial = 0; trial < 8; ++trial) {
      const std::vector<float> a = RandomVec(rng, n);
      const std::vector<float> b = RandomVec(rng, n);
      ExpectClose(simd::L2Sq(a.data(), b.data(), n),
                  simd::ScalarL2Sq(a.data(), b.data(), n), static_cast<double>(n));
    }
  }
}

TEST(SimdKernelTest, UnalignedPointersAreSafe) {
  // Kernels use unaligned loads; feed them pointers offset by 1..3 elements
  // from a fresh allocation.
  Rng rng(0x51d33);
  const size_t n = 131;
  for (size_t offset = 1; offset <= 3; ++offset) {
    std::vector<float> fa = RandomVec(rng, n + offset);
    std::vector<float> fb = RandomVec(rng, n + offset);
    const float* a = fa.data() + offset;
    const float* b = fb.data() + offset;
    ExpectClose(simd::Dot(a, b, n), simd::ScalarDot(a, b, n), static_cast<double>(n));
    ExpectClose(simd::L2Sq(a, b, n), simd::ScalarL2Sq(a, b, n), static_cast<double>(n));
  }
}

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// DotMany's contract is bit identity with Dot at the same kernel level, at
// every length (the 16-float body, the 8-float remainder step and the scalar
// tail) and every count (the four-vector passes and the single-vector rest).
// One pointer set is distinct vectors at every float alignment; the other
// repeats vectors and lists the query itself among them.
TEST(SimdKernelTest, DotManyIsBitIdenticalToDot) {
  Rng rng(0x51d55);
  constexpr size_t kMaxLen = 300;
  constexpr size_t kMaxCount = 9;
  constexpr size_t kStride = kMaxLen + 8;
  const std::vector<float> pool = RandomVec(rng, kMaxCount * kStride);
  const std::vector<float> query = RandomVec(rng, kMaxLen + 1);
  const float* q = query.data() + 1;  // unaligned
  const std::vector<const float*> distinct = [&] {
    std::vector<const float*> vecs;
    for (size_t v = 0; v < kMaxCount; ++v) {
      vecs.push_back(pool.data() + v * kStride + v % 8);
    }
    return vecs;
  }();
  const std::vector<const float*> repeats = {distinct[0], q,           distinct[0],
                                             distinct[5], q,           distinct[5],
                                             distinct[5], distinct[3], q};
  for (const std::vector<const float*>* vecs : {&distinct, &repeats}) {
    for (size_t n = 0; n <= kMaxLen; ++n) {
      for (size_t count = 0; count <= kMaxCount; ++count) {
        std::vector<double> out(count + 1, -7.0);
        simd::DotMany(q, vecs->data(), count, n, out.data());
        for (size_t v = 0; v < count; ++v) {
          ASSERT_EQ(Bits(out[v]), Bits(simd::Dot(q, (*vecs)[v], n)))
              << "n " << n << " count " << count << " vector " << v;
        }
        ASSERT_EQ(out[count], -7.0) << "wrote past count at n " << n;
      }
    }
  }
}

TEST(SimdKernelTest, ZeroLengthIsZero) {
  const float f = 1.0f;
  EXPECT_EQ(simd::Dot(&f, &f, 0), 0.0);
  EXPECT_EQ(simd::L2Sq(&f, &f, 0), 0.0);
}

TEST(SimdKernelTest, CosineMatchesMathutilSemantics) {
  Rng rng(0x51d44);
  const std::vector<float> a = RandomVec(rng, 128);
  const std::vector<float> b = RandomVec(rng, 128);
  const double cosine = simd::Cosine(a.data(), b.data(), a.size());
  EXPECT_GE(cosine, -1.0);
  EXPECT_LE(cosine, 1.0);
  // Self-similarity is 1, zero vectors yield 0.
  EXPECT_NEAR(simd::Cosine(a.data(), a.data(), a.size()), 1.0, 1e-6);
  const std::vector<float> zero(128, 0.0f);
  EXPECT_EQ(simd::Cosine(zero.data(), b.data(), zero.size()), 0.0);
}

}  // namespace
}  // namespace iccache
