#include "src/core/proxy_model.h"

#include <algorithm>

#include "src/common/mathutil.h"

namespace iccache {

namespace {

// Online SGD step size and L2 weight decay.
constexpr double kLearningRate = 0.03;
constexpr double kL2 = 1e-4;

}  // namespace

ProxyFeatures MakeProxyFeatures(double similarity, double example_quality,
                                double source_capability, double target_capability,
                                bool same_task, int example_tokens) {
  ProxyFeatures f;
  // Sentence embeddings are anisotropic: unrelated texts already sit near
  // cosine 0.5, so raw cosine overstates relevance. Recenter onto [0, 1]
  // with 0 at the random-pair baseline (standard embedding whitening).
  const double sim = Clamp((similarity - 0.5) / 0.5, 0.0, 1.0);
  const double quality = Clamp(example_quality, 0.0, 1.0);
  f.x[0] = 1.0;
  f.x[1] = sim;
  f.x[2] = quality;
  f.x[3] = Clamp(source_capability - target_capability, -1.0, 1.0);
  f.x[4] = same_task ? 1.0 : 0.0;
  f.x[5] = std::min(1.0, static_cast<double>(std::max(0, example_tokens)) / 1024.0);
  f.x[6] = sim * quality;
  return f;
}

ProxyUtilityModel::ProxyUtilityModel() {
  // Mild informed prior: relevance and quality help, length costs. The online
  // updates dominate quickly; the prior only avoids a cold-start where the
  // selector filters everything out.
  weights_[0] = -1.0;
  weights_[1] = 1.0;
  weights_[2] = 0.5;
  weights_[6] = 1.0;
  weights_[5] = -0.25;
}

double ProxyUtilityModel::Predict(const ProxyFeatures& features) const {
  double z = 0.0;
  for (size_t i = 0; i < ProxyFeatures::kDim; ++i) {
    z += weights_[i] * features.x[i];
  }
  return Sigmoid(z);
}

void ProxyUtilityModel::Update(const ProxyFeatures& features, double label) {
  const double target = Clamp(label, 0.0, 1.0);
  const double prediction = Predict(features);
  const double gradient = prediction - target;  // d(logloss)/dz
  for (size_t i = 0; i < ProxyFeatures::kDim; ++i) {
    weights_[i] -= kLearningRate * (gradient * features.x[i] + kL2 * weights_[i]);
  }
  ++updates_;
}

}  // namespace iccache
