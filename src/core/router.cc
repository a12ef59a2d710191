#include "src/core/router.h"

#include <algorithm>
#include <cmath>

#include "src/common/mathutil.h"
#include "src/common/rng.h"

namespace iccache {

namespace {

constexpr double kBiasGamma = 2.0;        // gamma: tanh steepness on load deviation
constexpr double kCostPreference = 0.12;  // standing tie-break toward cheap arms
constexpr double kUncertaintyGate = 0.10; // solicit feedback when confidence std < gate

}  // namespace

RequestRouter::RequestRouter(std::vector<RouterArmSpec> arms, RouterConfig config)
    : arms_(std::move(arms)),
      config_(config),
      bandit_(arms_.size(), kContextDim, config.seed),
      load_ema_(config.load_ema_alpha),
      explore_rng_(config.seed ^ 0xe9d) {}

std::vector<double> RequestRouter::MakeContext(const Request& request,
                                               const std::vector<SelectedExample>& examples) {
  double utility_sum = 0.0;
  double max_similarity = 0.0;
  for (const SelectedExample& ex : examples) {
    utility_sum += ex.predicted_utility;
    max_similarity = std::max(max_similarity, ex.similarity);
  }
  std::vector<double> context(kContextDim, 0.0);
  context[0] = 1.0;  // bias
  context[1] = static_cast<double>(examples.size()) / 5.0;
  context[2] = std::min(1.0, utility_sum / 3.0);
  context[3] = Clamp(max_similarity, 0.0, 1.0);
  context[4] = std::min(1.0, static_cast<double>(request.input_tokens) / 512.0);
  context[5] = std::min(1.0, static_cast<double>(request.target_output_tokens) / 1024.0);
  context[6] = EstimateDifficulty(request);
  context[7] = static_cast<double>(request.task) / 4.0;  // coarse task signal
  return context;
}

double RequestRouter::EstimateDifficulty(const Request& request) {
  Rng rng(Mix64(request.id ^ 0xd1ff1cu));
  return Clamp(request.difficulty + rng.Normal(0.0, 0.12), 0.0, 1.0);
}

void RequestRouter::ObserveLoad(double load) { load_ema_.Add(load); }

std::vector<double> RequestRouter::OverloadBiases(double load, double* overload) const {
  // Theorem-4 overload bias on the positive load deviation only.
  const double deviation = std::max(0.0, load - config_.load_threshold);
  *overload = config_.bias_lambda * std::tanh(kBiasGamma * deviation);
  std::vector<double> biases(arms_.size(), 0.0);
  for (size_t i = 0; i < arms_.size(); ++i) {
    biases[i] = -(kCostPreference + *overload) * arms_[i].normalized_cost;
  }
  return biases;
}

RouteDecision RequestRouter::FinishDecision(BanditSelection selection,
                                            std::vector<double> context, double load,
                                            double overload, Rng& explore_rng) const {
  if (arms_.size() > 1 && explore_rng.Bernoulli(config_.exploration_epsilon)) {
    selection.arm = explore_rng.UniformInt(arms_.size());
    if (selection.second_choice == selection.arm) {
      selection.second_choice = (selection.arm + 1) % arms_.size();
    }
  }

  RouteDecision decision;
  decision.arm = selection.arm;
  decision.model_name = arms_[selection.arm].model_name;
  decision.uses_examples = arms_[selection.arm].uses_examples;
  decision.second_choice = selection.second_choice;
  decision.load_ema = load;
  decision.overload_bias_magnitude = overload;
  decision.context = std::move(context);
  decision.arm_means = std::move(selection.mean_scores);
  decision.solicit_feedback = selection.confidence_std < kUncertaintyGate;
  return decision;
}

RouteDecision RequestRouter::Route(const Request& request,
                                   const std::vector<SelectedExample>& examples) {
  std::vector<double> context = MakeContext(request, examples);
  const double load = load_ema_.value();
  double overload = 0.0;
  const std::vector<double> biases = OverloadBiases(load, &overload);
  BanditSelection selection = bandit_.Select(context, biases);
  return FinishDecision(std::move(selection), std::move(context), load, overload, explore_rng_);
}

RouteDecision RequestRouter::RouteWithRng(const Request& request,
                                          const std::vector<SelectedExample>& examples,
                                          Rng& rng) const {
  std::vector<double> context = MakeContext(request, examples);
  const double load = load_ema_.value();
  double overload = 0.0;
  const std::vector<double> biases = OverloadBiases(load, &overload);
  BanditSelection selection = bandit_.SelectWithRng(context, biases, rng);
  return FinishDecision(std::move(selection), std::move(context), load, overload, rng);
}

void RequestRouter::UpdateReward(const RouteDecision& decision, double reward) {
  // Rewards are centered at the quality midpoint so the zero-mean prior of an
  // unexplored arm corresponds to "average quality", not "worst possible" —
  // otherwise the first arm to collect a decent reward permanently outruns
  // the others and exploration collapses.
  bandit_.Update(decision.arm, decision.context, Clamp(reward, 0.0, 1.0) - 0.5);
}

void RequestRouter::UpdatePreference(const RouteDecision& decision, bool top_choice_won) {
  // A preference comparison trains both compared arms: the winner toward the
  // top of the (centered) reward scale, the loser toward the bottom.
  const size_t winner = top_choice_won ? decision.arm : decision.second_choice;
  const size_t loser = top_choice_won ? decision.second_choice : decision.arm;
  bandit_.Update(winner, decision.context, 0.25);
  bandit_.Update(loser, decision.context, -0.25);
}

}  // namespace iccache
