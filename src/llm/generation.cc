#include "src/llm/generation.h"

#include <algorithm>
#include <cmath>

#include "src/common/mathutil.h"

namespace iccache {

namespace {

// Quality model constants (see the file comment in generation.h).
constexpr double kQualitySlope = 5.0;       // sigmoid steepness vs (capability - difficulty)
constexpr double kCapabilityNoise = 0.05;   // per-call capability jitter (sampling variance)
constexpr double kQualityNoise = 0.04;      // additive output-quality jitter
constexpr double kRelevanceFloor = 0.35;    // examples below this relevance contribute no utility
constexpr double kCoverageScale = 0.9;      // utility saturation constant
constexpr double kExceedMargin = 0.10;      // how far IC can push past the source capability
constexpr double kDistractionRate = 0.15;   // capability lost per fully irrelevant example
// A *relevant* example whose stored response is poor actively misleads: the
// model imitates a bad trajectory. Responses below the pivot contribute
// negative utility scaled by kMisleadingRate.
constexpr double kBadExamplePivot = 0.45;
constexpr double kMisleadingRate = 0.06;
constexpr double kDecodeShrinkWithIc = 0.92;  // examples guide shorter decodes (Figure 18)
// Task-specific strictness offsets applied to the accuracy verdict.
constexpr double kAccuracyOffsetCode = 0.55;
constexpr double kAccuracyOffsetMath = 0.65;
constexpr double kAccuracyOffsetOther = 0.10;

}  // namespace

GenerationSimulator::GenerationSimulator(uint64_t seed) : rng_(seed) {}

double GenerationSimulator::EffectiveCapability(const ModelProfile& model,
                                                const std::vector<ExampleView>& examples,
                                                Rng& rng) const {
  double capability = model.capability + rng.Normal(0.0, kCapabilityNoise);
  if (examples.empty()) {
    return capability;
  }

  // Relevant examples transfer capability from their source model; the
  // benefit saturates with total utility (diminishing returns).
  double utility_sum = 0.0;
  double source_cap_weighted = 0.0;
  double source_weight = 0.0;
  double irrelevant_mass = 0.0;
  double misleading_mass = 0.0;
  for (const ExampleView& ex : examples) {
    const double rel = Clamp(ex.relevance, 0.0, 1.0);
    if (rel > kRelevanceFloor) {
      const double rel_scaled =
          (rel - kRelevanceFloor) / (1.0 - kRelevanceFloor);
      const double quality_signal =
          Clamp(ex.quality, 0.0, 1.0) - kBadExamplePivot;
      if (quality_signal >= 0.0) {
        const double u = rel_scaled * quality_signal / (1.0 - kBadExamplePivot);
        utility_sum += u;
        source_cap_weighted += u * ex.source_capability;
        source_weight += u;
      } else {
        // Relevant but wrong: the model imitates the bad trajectory.
        misleading_mass += rel_scaled * (-quality_signal) / kBadExamplePivot;
      }
    } else {
      irrelevant_mass += 1.0 - rel / std::max(kRelevanceFloor, 1e-9);
    }
  }

  if (source_weight > 0.0) {
    const double source_capability = source_cap_weighted / source_weight;
    const double coverage = 1.0 - std::exp(-utility_sum / kCoverageScale);
    const double target = source_capability + kExceedMargin;
    const double headroom = std::max(0.0, target - model.capability);
    capability += model.icl_aptitude * headroom * coverage;
  }

  capability -= kDistractionRate * irrelevant_mass * (1.0 - model.robustness);
  capability -= kMisleadingRate * misleading_mass * (1.0 - 0.5 * model.robustness);
  return capability;
}

GenerationResult GenerationSimulator::Generate(const ModelProfile& model, const Request& request,
                                               const std::vector<ExampleView>& examples,
                                               double extra_capability) {
  return Generate(model, request, examples, rng_, extra_capability);
}

GenerationResult GenerationSimulator::Generate(const ModelProfile& model, const Request& request,
                                               const std::vector<ExampleView>& examples, Rng& rng,
                                               double extra_capability) const {
  GenerationResult result;
  result.request_id = request.id;
  result.model_name = model.name;

  const double capability = EffectiveCapability(model, examples, rng) + extra_capability;
  const double margin = capability - request.difficulty;
  result.latent_quality = Clamp(
      Sigmoid(kQualitySlope * margin) + rng.Normal(0.0, kQualityNoise), 0.0, 1.0);

  // Accuracy verdict: tasks with an objective notion of correctness (code,
  // math) apply a strictness offset, so raw pass rates sit well below the
  // latent-quality scale (Figure 4a's 25-55% accuracy band).
  double offset = kAccuracyOffsetOther;
  if (request.task == TaskType::kCodeGeneration) {
    offset = kAccuracyOffsetCode;
  } else if (request.task == TaskType::kMathReasoning) {
    offset = kAccuracyOffsetMath;
  }
  const double p_correct = Sigmoid(kQualitySlope * margin - offset);
  result.correct = rng.Bernoulli(p_correct);

  // Token accounting and zero-load latency.
  int prompt_tokens = request.input_tokens;
  for (const ExampleView& ex : examples) {
    prompt_tokens += std::max(0, ex.tokens);
  }
  result.prompt_tokens = prompt_tokens;

  double decode_len = static_cast<double>(request.target_output_tokens);
  if (!examples.empty()) {
    // Examples from the large model anchor the answer format, trimming
    // meandering decodes (the paper's 3% zero-load speedup, Figure 18).
    decode_len *= kDecodeShrinkWithIc;
  }
  decode_len *= std::exp(rng.Normal(0.0, 0.10));
  result.output_tokens = std::max(4, static_cast<int>(decode_len));

  result.ttft_s =
      model.ttft_base_s + static_cast<double>(prompt_tokens) / std::max(model.prefill_tps, 1.0);
  result.tbt_s = model.Tbt() * std::exp(rng.Normal(0.0, 0.03));
  result.e2e_latency_s = result.ttft_s + result.tbt_s * result.output_tokens;
  return result;
}

double GenerationSimulator::ReusedResponseQuality(double cached_quality, double relevance) {
  return ReusedResponseQuality(cached_quality, relevance, rng_);
}

double GenerationSimulator::ReusedResponseQuality(double cached_quality, double relevance,
                                                  Rng& rng) const {
  double rel = Clamp(relevance, 0.0, 1.0);
  // Semantic equivalence is inherently subjective (section 2.3): a fraction
  // of apparent paraphrases actually ask something subtly different, and the
  // reused answer misses the mark.
  if (rel >= 0.9 && rng.Bernoulli(0.15)) {
    rel = 0.65;
  }
  double fidelity = 0.0;
  if (rel >= 0.9) {
    fidelity = 0.97;  // true paraphrase: the answer carries over
  } else if (rel >= 0.5) {
    // Topically similar but a different question: largely off-target — the
    // reader asked something else, so even a well-written cached answer loses
    // the side-by-side comparison.
    fidelity = 0.30 * (rel - 0.5) / 0.4 + 0.08;
  } else {
    fidelity = 0.04;
  }
  const double q = cached_quality * fidelity + rng.Normal(0.0, 0.02);
  return Clamp(q, 0.0, 1.0);
}

double StructuralRelevance(const Request& a, const Request& b, Rng& rng) {
  double base = 0.02;
  if (a.dataset == b.dataset) {
    base = 0.08;
    if (a.topic_id == b.topic_id) {
      base = (a.intent_id == b.intent_id) ? 0.95 : 0.62;
    }
  }
  return Clamp(base + rng.Normal(0.0, 0.03), 0.0, 1.0);
}

}  // namespace iccache
