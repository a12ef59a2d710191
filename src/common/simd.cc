#include "src/common/simd.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ICCACHE_SIMD_X86 1
#include <immintrin.h>
#endif

namespace iccache {
namespace simd {

// --- Scalar reference kernels ----------------------------------------------

double ScalarDot(const float* a, const float* b, size_t n) {
  // 4-accumulator unroll: breaks the serial dependency chain so the
  // auto-vectorizer (and out-of-order hardware) can overlap the multiplies.
  // This is byte-for-byte the historical hnsw.cc DotFast kernel.
  float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) {
    acc0 += a[i] * b[i];
  }
  return static_cast<double>((acc0 + acc1) + (acc2 + acc3));
}

namespace {

void ScalarDotMany(const float* q, const float* const* vecs, size_t count, size_t n,
                   double* out) {
  for (size_t v = 0; v < count; ++v) {
    out[v] = ScalarDot(q, vecs[v], n);
  }
}

}  // namespace

double ScalarL2Sq(const float* a, const float* b, size_t n) {
  float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float d0 = a[i] - b[i];
    const float d1 = a[i + 1] - b[i + 1];
    const float d2 = a[i + 2] - b[i + 2];
    const float d3 = a[i + 3] - b[i + 3];
    acc0 += d0 * d0;
    acc1 += d1 * d1;
    acc2 += d2 * d2;
    acc3 += d3 * d3;
  }
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    acc0 += d * d;
  }
  return static_cast<double>((acc0 + acc1) + (acc2 + acc3));
}

// --- AVX2 + FMA kernels -----------------------------------------------------
//
// Compiled with per-function target attributes so the translation unit builds
// on any x86-64 toolchain without global -mavx2 flags; the dispatcher only
// calls them after cpuid reports both features.

#ifdef ICCACHE_SIMD_X86

namespace {

__attribute__((target("avx2"))) inline float HSum256(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

__attribute__((target("avx2,fma"))) double DotAvx2(const float* a, const float* b, size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8), acc1);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
  }
  float total = HSum256(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) {
    total += a[i] * b[i];
  }
  return static_cast<double>(total);
}

// DotAvx2 against four vectors at once: each vector keeps DotAvx2's own
// accumulator split, remainder step, horizontal sum and scalar tail, so every
// result is bit-identical to DotAvx2's; the eight independent FMA chains hide
// the FMA latency that a single vector's two chains expose, and the four
// vectors share each load of `q`.
__attribute__((target("avx2,fma"))) void DotManyAvx2(const float* q, const float* const* vecs,
                                                       size_t count, size_t n, double* out) {
  size_t v = 0;
  for (; v + 4 <= count; v += 4) {
    const float* b0 = vecs[v];
    const float* b1 = vecs[v + 1];
    const float* b2 = vecs[v + 2];
    const float* b3 = vecs[v + 3];
    __m256 acc00 = _mm256_setzero_ps(), acc01 = _mm256_setzero_ps();
    __m256 acc10 = _mm256_setzero_ps(), acc11 = _mm256_setzero_ps();
    __m256 acc20 = _mm256_setzero_ps(), acc21 = _mm256_setzero_ps();
    __m256 acc30 = _mm256_setzero_ps(), acc31 = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
      const __m256 q0 = _mm256_loadu_ps(q + i);
      const __m256 q1 = _mm256_loadu_ps(q + i + 8);
      acc00 = _mm256_fmadd_ps(q0, _mm256_loadu_ps(b0 + i), acc00);
      acc01 = _mm256_fmadd_ps(q1, _mm256_loadu_ps(b0 + i + 8), acc01);
      acc10 = _mm256_fmadd_ps(q0, _mm256_loadu_ps(b1 + i), acc10);
      acc11 = _mm256_fmadd_ps(q1, _mm256_loadu_ps(b1 + i + 8), acc11);
      acc20 = _mm256_fmadd_ps(q0, _mm256_loadu_ps(b2 + i), acc20);
      acc21 = _mm256_fmadd_ps(q1, _mm256_loadu_ps(b2 + i + 8), acc21);
      acc30 = _mm256_fmadd_ps(q0, _mm256_loadu_ps(b3 + i), acc30);
      acc31 = _mm256_fmadd_ps(q1, _mm256_loadu_ps(b3 + i + 8), acc31);
    }
    for (; i + 8 <= n; i += 8) {
      const __m256 q0 = _mm256_loadu_ps(q + i);
      acc00 = _mm256_fmadd_ps(q0, _mm256_loadu_ps(b0 + i), acc00);
      acc10 = _mm256_fmadd_ps(q0, _mm256_loadu_ps(b1 + i), acc10);
      acc20 = _mm256_fmadd_ps(q0, _mm256_loadu_ps(b2 + i), acc20);
      acc30 = _mm256_fmadd_ps(q0, _mm256_loadu_ps(b3 + i), acc30);
    }
    float total0 = HSum256(_mm256_add_ps(acc00, acc01));
    float total1 = HSum256(_mm256_add_ps(acc10, acc11));
    float total2 = HSum256(_mm256_add_ps(acc20, acc21));
    float total3 = HSum256(_mm256_add_ps(acc30, acc31));
    for (; i < n; ++i) {
      total0 += q[i] * b0[i];
      total1 += q[i] * b1[i];
      total2 += q[i] * b2[i];
      total3 += q[i] * b3[i];
    }
    out[v] = static_cast<double>(total0);
    out[v + 1] = static_cast<double>(total1);
    out[v + 2] = static_cast<double>(total2);
    out[v + 3] = static_cast<double>(total3);
  }
  for (; v < count; ++v) {
    out[v] = DotAvx2(q, vecs[v], n);
  }
}

__attribute__((target("avx2,fma"))) double L2SqAvx2(const float* a, const float* b, size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    const __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_fmadd_ps(d, d, acc0);
  }
  float total = HSum256(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    total += d * d;
  }
  return static_cast<double>(total);
}

}  // namespace

#endif  // ICCACHE_SIMD_X86

// --- Dispatch ----------------------------------------------------------------

KernelLevel ResolveKernelLevel(bool cpu_has_avx2_fma, bool force_scalar) {
  if (force_scalar || !cpu_has_avx2_fma) {
    return KernelLevel::kScalar;
  }
  return KernelLevel::kAvx2;
}

namespace {

bool ForceScalarFromEnv() {
  const char* value = std::getenv("ICCACHE_FORCE_SCALAR");
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

bool CpuHasAvx2Fma() {
#ifdef ICCACHE_SIMD_X86
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

struct Dispatch {
  KernelLevel level;
  bool forced_scalar;
  double (*dot)(const float*, const float*, size_t);
  void (*dot_many)(const float*, const float* const*, size_t, size_t, double*);
  double (*l2sq)(const float*, const float*, size_t);
};

Dispatch MakeDispatch() {
  Dispatch d;
  d.forced_scalar = ForceScalarFromEnv();
  d.level = ResolveKernelLevel(CpuHasAvx2Fma(), d.forced_scalar);
#ifdef ICCACHE_SIMD_X86
  if (d.level == KernelLevel::kAvx2) {
    d.dot = &DotAvx2;
    d.dot_many = &DotManyAvx2;
    d.l2sq = &L2SqAvx2;
    return d;
  }
#endif
  d.dot = &ScalarDot;
  d.dot_many = &ScalarDotMany;
  d.l2sq = &ScalarL2Sq;
  return d;
}

// Resolved once (thread-safe magic static); constant for the process life.
const Dispatch& GetDispatch() {
  static const Dispatch dispatch = MakeDispatch();
  return dispatch;
}

}  // namespace

KernelLevel ActiveKernelLevel() { return GetDispatch().level; }

bool ScalarForced() { return GetDispatch().forced_scalar; }

const char* KernelLevelName(KernelLevel level) {
  switch (level) {
    case KernelLevel::kAvx2:
      return "avx2";
    case KernelLevel::kScalar:
    default:
      return "scalar";
  }
}

double Dot(const float* a, const float* b, size_t n) { return GetDispatch().dot(a, b, n); }

void DotMany(const float* q, const float* const* vecs, size_t count, size_t n, double* out) {
  GetDispatch().dot_many(q, vecs, count, n, out);
}

double L2Sq(const float* a, const float* b, size_t n) { return GetDispatch().l2sq(a, b, n); }

double Cosine(const float* a, const float* b, size_t n) {
  const double na = Dot(a, a, n);
  const double nb = Dot(b, b, n);
  if (na <= 0.0 || nb <= 0.0) {
    return 0.0;
  }
  const double cosine = Dot(a, b, n) / std::sqrt(na * nb);
  return std::min(1.0, std::max(-1.0, cosine));
}

}  // namespace simd
}  // namespace iccache
