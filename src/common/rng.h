// Deterministic pseudo-random number generation and the sampling distributions
// used across the IC-Cache simulators.
//
// Every stochastic component in this repository draws from an explicitly seeded
// Rng so that experiments are reproducible run-to-run. The generator is
// xoshiro256** seeded via splitmix64, which is fast, high quality, and easy to
// fork into independent streams.
#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace iccache {

// splitmix64 step; used for seeding and for cheap stateless hashing.
uint64_t SplitMix64(uint64_t& state);

// Stateless 64-bit mix of a single value (useful for hashing ids to seeds).
uint64_t Mix64(uint64_t value);

// Complete generator state, exposed so persisted components (snapshot
// subsystem) can resume their random streams exactly where they stopped.
// Includes the Box-Muller cache: dropping it would shift every subsequent
// Normal() draw by one.
struct RngState {
  std::array<uint64_t, 4> s{};
  double cached_normal = 0.0;
  bool has_cached_normal = false;
};

// xoshiro256** PRNG. Not thread-safe; fork one per thread via Fork().
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

  // Returns a uniformly distributed 64-bit value.
  uint64_t NextU64();

  // Returns a new generator whose stream is independent of this one.
  Rng Fork();

  // Uniform double in [0, 1).
  double Uniform();

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Standard normal via Box-Muller (cached second value).
  double Normal();

  // Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  // Lognormal: exp(Normal(mu, sigma)).
  double LogNormal(double mu, double sigma);

  // Exponential with the given rate (lambda). Requires rate > 0.
  double Exponential(double rate);

  // Gamma(shape, scale) via Marsaglia-Tsang; shape > 0, scale > 0.
  double Gamma(double shape, double scale);

  // Beta(alpha, beta) via two Gamma draws; both parameters > 0.
  double Beta(double alpha, double beta);

  // Bernoulli trial with success probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  // Samples an index proportional to the (non-negative) weights. Returns
  // weights.size() - 1 on degenerate all-zero input... callers treat a uniform
  // fallback as acceptable in that case.
  size_t Categorical(const std::vector<double>& weights);

  // Fisher-Yates shuffle of indices [0, n); returns the permuted index vector.
  std::vector<size_t> Permutation(size_t n);

  // Samples k distinct indices from [0, n) (k <= n) in O(k) expected time.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  // Exact stream save/restore (snapshot persistence).
  RngState SaveState() const;
  void RestoreState(const RngState& state);

 private:
  uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

// Zipf(s) sampler over ranks {0, ..., n-1}: P(k) proportional to 1/(k+1)^s.
// Precomputes the CDF once; sampling is O(log n).
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double exponent);

  size_t Sample(Rng& rng) const;

  size_t size() const { return cdf_.size(); }

  // Probability mass of rank k.
  double Pmf(size_t k) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace iccache

#endif  // SRC_COMMON_RNG_H_
