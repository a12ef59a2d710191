// Runtime-dispatched SIMD distance kernels — the one implementation every
// stage-1 retrieval backend (FlatIndex, KMeansIndex, HnswIndex), the K-Means
// clusterer, and stage-2 diversity scoring share.
//
// Dispatch model: the kernel level is resolved ONCE, the first time any
// dispatched kernel (or ActiveKernelLevel) is called, and never changes for
// the lifetime of the process. On x86-64 the AVX2+FMA path is selected when
// the CPU reports both features; everywhere else (or when the
// ICCACHE_FORCE_SCALAR environment variable is set to anything but "0"/"")
// the portable scalar path runs. A fixed per-process choice is what keeps
// the serving driver's determinism contract intact: every thread, lane, and
// restore-then-serve replay inside one process computes bit-identical
// similarities. Scores are NOT bit-identical across *differently dispatched*
// processes — the AVX2 kernels accumulate in 8 float lanes with FMA while
// the scalar reference uses a 4-accumulator unroll — so cross-process
// comparisons must either force a common level or allow the documented
// tolerance below.
//
// Accuracy contract (see tests/common_simd_test.cc):
//   Dot / L2Sq — dispatched vs scalar agree within a relative error of 1e-5
//     (plus 1e-6 absolute slack near zero) for |x| <= 1 inputs at dims up to
//     a few thousand; both are float-accumulated.
//   DotMany — out[i] is bit-identical to Dot(q, vecs[i], n) at the same
//     kernel level, for every n and count (the scalar form loops ScalarDot,
//     so it follows any change to what ScalarDot computes).
//
// mathutil::Dot (double accumulation) intentionally stays separate: it backs
// L2Norm / NormalizeL2 / CosineSimilarity and the numeric tests that pin its
// exact values. Hot retrieval paths use the kernels here instead.
#ifndef SRC_COMMON_SIMD_H_
#define SRC_COMMON_SIMD_H_

#include <cstddef>

namespace iccache {
namespace simd {

enum class KernelLevel : int {
  kScalar = 0,
  kAvx2 = 1,  // AVX2 + FMA
};

// The per-process kernel choice (resolved once, then constant). Thread-safe.
KernelLevel ActiveKernelLevel();

// "scalar" | "avx2".
const char* KernelLevelName(KernelLevel level);

// True when ICCACHE_FORCE_SCALAR suppressed an available AVX2 path (CI/TSan
// machines use this to keep runs comparable across heterogeneous hardware).
bool ScalarForced();

// --- Dispatched kernels (all accept unaligned pointers, any n >= 0) --------

// Inner product of two float vectors, float-accumulated.
double Dot(const float* a, const float* b, size_t n);

// out[i] = Dot(q, vecs[i], n) for i < count: one call scores a batch of
// vectors against one query (an HNSW hop's neighbors). The AVX2 form runs
// four vectors per pass, sharing the loads of q and overlapping their FMA
// chains.
void DotMany(const float* q, const float* const* vecs, size_t count, size_t n, double* out);

// Squared Euclidean distance of two float vectors, float-accumulated.
double L2Sq(const float* a, const float* b, size_t n);

// Cosine similarity in [-1, 1] composed from the dispatched Dot; returns 0
// when either vector has zero norm. Matches mathutil::CosineSimilarity
// semantics but float-accumulated (stage-2 diversity scoring hot path).
double Cosine(const float* a, const float* b, size_t n);

// --- Scalar reference implementations ---------------------------------------
//
// Always available regardless of dispatch; the kernel correctness suite
// compares the dispatched forms against these. ScalarDot is the exact
// 4-accumulator unroll the pre-SIMD HNSW hot loop used (hnsw.cc DotFast), so
// scalar-dispatched processes reproduce its historical similarities.
double ScalarDot(const float* a, const float* b, size_t n);
double ScalarL2Sq(const float* a, const float* b, size_t n);

// Internal dispatch resolver, exposed for tests: the level the process WOULD
// pick given cpu support and the force-scalar override.
KernelLevel ResolveKernelLevel(bool cpu_has_avx2_fma, bool force_scalar);

}  // namespace simd
}  // namespace iccache

#endif  // SRC_COMMON_SIMD_H_
