#include "src/common/rng.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace iccache {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Mix64(uint64_t value) {
  uint64_t state = value;
  return SplitMix64(state);
}

namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t state = seed;
  for (auto& s : s_) {
    s = SplitMix64(state);
  }
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

Rng Rng::Fork() { return Rng(NextU64() ^ 0xa5a5a5a5a5a5a5a5ull); }

RngState Rng::SaveState() const {
  RngState state;
  for (size_t i = 0; i < 4; ++i) {
    state.s[i] = s_[i];
  }
  state.cached_normal = cached_normal_;
  state.has_cached_normal = has_cached_normal_;
  return state;
}

void Rng::RestoreState(const RngState& state) {
  for (size_t i = 0; i < 4; ++i) {
    s_[i] = state.s[i];
  }
  cached_normal_ = state.cached_normal;
  has_cached_normal_ = state.has_cached_normal;
}

double Rng::Uniform() {
  // 53 random mantissa bits -> double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

uint64_t Rng::UniformInt(uint64_t n) {
  // Lemire's nearly-divisionless bounded sampling.
  if (n == 0) {
    return 0;
  }
  __uint128_t m = static_cast<__uint128_t>(NextU64()) * n;
  uint64_t lo = static_cast<uint64_t>(m);
  if (lo < n) {
    const uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      m = static_cast<__uint128_t>(NextU64()) * n;
      lo = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(UniformInt(static_cast<uint64_t>(hi - lo + 1)));
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = Uniform();
  } while (u1 <= 1e-300);
  const double u2 = Uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(theta);
  has_cached_normal_ = true;
  return radius * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) { return mean + stddev * Normal(); }

double Rng::LogNormal(double mu, double sigma) { return std::exp(Normal(mu, sigma)); }

double Rng::Exponential(double rate) {
  double u = 0.0;
  do {
    u = Uniform();
  } while (u <= 1e-300);
  return -std::log(u) / rate;
}

double Rng::Gamma(double shape, double scale) {
  if (shape < 1.0) {
    // Boost shape by one and correct with a uniform power (Marsaglia-Tsang).
    const double u = std::max(Uniform(), 1e-300);
    return Gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  while (true) {
    double x = 0.0;
    double v = 0.0;
    do {
      x = Normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = Uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) {
      return d * v * scale;
    }
    if (u > 1e-300 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v * scale;
    }
  }
}

double Rng::Beta(double alpha, double beta) {
  const double x = Gamma(alpha, 1.0);
  const double y = Gamma(beta, 1.0);
  const double sum = x + y;
  if (sum <= 0.0) {
    return 0.5;
  }
  return x / sum;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return Uniform() < p;
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    total += std::max(0.0, w);
  }
  if (total <= 0.0 || weights.empty()) {
    return weights.empty() ? 0 : weights.size() - 1;
  }
  double target = Uniform() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    target -= std::max(0.0, weights[i]);
    if (target <= 0.0) {
      return i;
    }
  }
  return weights.size() - 1;
}

std::vector<size_t> Rng::Permutation(size_t n) {
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) {
    perm[i] = i;
  }
  for (size_t i = n; i > 1; --i) {
    const size_t j = UniformInt(i);
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  k = std::min(k, n);
  std::vector<size_t> chosen;
  chosen.reserve(k);
  if (k * 3 >= n) {
    // Dense case: partial Fisher-Yates.
    std::vector<size_t> perm = Permutation(n);
    chosen.assign(perm.begin(), perm.begin() + static_cast<long>(k));
    return chosen;
  }
  std::unordered_set<size_t> seen;
  seen.reserve(k * 2);
  while (chosen.size() < k) {
    const size_t candidate = UniformInt(n);
    if (seen.insert(candidate).second) {
      chosen.push_back(candidate);
    }
  }
  return chosen;
}

ZipfSampler::ZipfSampler(size_t n, double exponent) {
  cdf_.resize(n);
  double total = 0.0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    cdf_[k] = total;
  }
  for (auto& value : cdf_) {
    value /= total;
  }
}

size_t ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.Uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) {
    return cdf_.size() - 1;
  }
  return static_cast<size_t>(it - cdf_.begin());
}

double ZipfSampler::Pmf(size_t k) const {
  if (k >= cdf_.size()) {
    return 0.0;
  }
  if (k == 0) {
    return cdf_[0];
  }
  return cdf_[k] - cdf_[k - 1];
}

}  // namespace iccache
