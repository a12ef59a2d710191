// Stage-2 proxy utility model (section 4.1): a lightweight learned model that
// estimates, per (request, candidate example) pair, how much the example will
// improve the final response. The paper uses a TinyBERT-scale scorer trained
// offline from sampled user feedback; here it is an online logistic regressor
// over the features such a scorer would consume. What matters architecturally
// is that the estimate combines relevance with example quality and the target
// model's capability gap — the signals pure cosine similarity misses
// (Figure 7's weak correlation).
#ifndef SRC_CORE_PROXY_MODEL_H_
#define SRC_CORE_PROXY_MODEL_H_

#include <array>
#include <cstddef>

namespace iccache {

struct ProxyFeatures {
  static constexpr size_t kDim = 7;

  // [bias, similarity, example_quality, capability_gap, same_task,
  //  length_cost, similarity * example_quality]
  std::array<double, kDim> x{};
};

// Builds the feature vector. `similarity` is embedding cosine; quality and
// capabilities are in [0, 1]; `example_tokens` is the prompt-length cost.
ProxyFeatures MakeProxyFeatures(double similarity, double example_quality,
                                double source_capability, double target_capability,
                                bool same_task, int example_tokens);

class ProxyUtilityModel {
 public:
  ProxyUtilityModel();

  // Predicted helpfulness in [0, 1].
  double Predict(const ProxyFeatures& features) const;

  // One SGD step toward the observed helpfulness label in [0, 1].
  void Update(const ProxyFeatures& features, double label);

  size_t updates() const { return updates_; }
  const std::array<double, ProxyFeatures::kDim>& weights() const { return weights_; }

  // Exact learned-state restore (snapshot persistence).
  void RestoreState(const std::array<double, ProxyFeatures::kDim>& weights, size_t updates) {
    weights_ = weights;
    updates_ = updates;
  }

 private:
  std::array<double, ProxyFeatures::kDim> weights_{};
  size_t updates_ = 0;
};

}  // namespace iccache

#endif  // SRC_CORE_PROXY_MODEL_H_
