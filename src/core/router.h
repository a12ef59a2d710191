// Load- and quality-aware Request Router (section 4.2).
//
// Arms are candidate models (e.g., small-with-examples and large-without).
// For each request the router builds a context from observable request and
// example statistics, Thompson-samples every arm, and applies two additive
// biases before the argmax:
//
//  * a standing cost preference that breaks quality ties toward cheap models;
//  * the Theorem-4 overload bias  -lambda0 * tanh(gamma * (load - threshold))
//    * cost_i, active only while the EMA load exceeds the operational
//    threshold — a smooth, saturating pressure toward cheap arms that leaves
//    the learned policy untouched.
//
// Feedback is solicited selectively (Appendix A.2): only when the softmax of
// the arms' posterior-mean scores is near-uniform (std below a gate) does the
// router ask for a preference comparison between the top choice and a
// confidence-sampled runner-up.
#ifndef SRC_CORE_ROUTER_H_
#define SRC_CORE_ROUTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/core/bandit.h"
#include "src/core/selector.h"
#include "src/workload/request.h"

namespace iccache {

struct RouterArmSpec {
  std::string model_name;
  double normalized_cost = 1.0;  // relative serving cost in [0, 1]
  bool uses_examples = false;    // whether this arm serves with IC examples
};

struct RouterConfig {
  double load_ema_alpha = 0.05;
  double load_threshold = 0.75;   // operational utilization threshold
  double bias_lambda = 1.5;       // lambda_0 in Theorem 4
  // Forced exploration: fraction of requests routed to a uniformly random
  // arm. The per-arm linear posteriors under-explore context regions an arm
  // rarely serves (selection bias); a small epsilon keeps every region
  // sampled so the policy can track drift (section 8, model updates).
  double exploration_epsilon = 0.08;
  uint64_t seed = 0x40073;
};

struct RouteDecision {
  size_t arm = 0;
  std::string model_name;
  bool uses_examples = false;
  bool solicit_feedback = false;
  size_t second_choice = 0;
  double load_ema = 0.0;
  double overload_bias_magnitude = 0.0;  // auto-scaling signal (section 4.2)
  std::vector<double> context;
  std::vector<double> arm_means;
};

class RequestRouter {
 public:
  static constexpr size_t kContextDim = 8;

  RequestRouter(std::vector<RouterArmSpec> arms, RouterConfig config = {});

  // Builds the observable context for a request plus its selected examples.
  static std::vector<double> MakeContext(const Request& request,
                                         const std::vector<SelectedExample>& examples);

  // Difficulty estimate a production router would obtain from its
  // text-difficulty classifier. The synthetic workload's difficulty is not
  // decodable from the generated text, so a noisy deterministic oracle keyed
  // by request id stands in for that classifier (same device the RouteLLM
  // baseline uses).
  static double EstimateDifficulty(const Request& request);

  // Records an instantaneous load sample (utilization; 1.0 == at capacity).
  void ObserveLoad(double load);

  // Chooses the serving arm for the request.
  RouteDecision Route(const Request& request, const std::vector<SelectedExample>& examples);

  // Same decision logic with an external sampling stream and no mutation of
  // the router: Thompson sampling, exploration, and the runner-up draw all
  // consume `rng`, and the posteriors/load EMA are read as-is. Used by the
  // serving driver's commit lanes, which route a whole batch window against
  // posteriors frozen at the window start (reward updates are merged at the
  // window boundary) with a per-request stream, so any lane/thread count
  // reproduces the same decisions. Call PrepareSampling() after the last
  // posterior update and before fanning out concurrent callers.
  RouteDecision RouteWithRng(const Request& request,
                             const std::vector<SelectedExample>& examples, Rng& rng) const;

  // Refreshes the bandit's lazy posterior factorizations on the calling
  // thread so concurrent RouteWithRng calls are race-free.
  void PrepareSampling() const { bandit_.RefreshAll(); }

  // Reward feedback for a previously routed request (quality signal in [0,1]).
  void UpdateReward(const RouteDecision& decision, double reward);

  // Preference feedback between the two solicited arms (Appendix A.2).
  void UpdatePreference(const RouteDecision& decision, bool top_choice_won);

  double load_ema() const { return load_ema_.value(); }
  size_t num_arms() const { return arms_.size(); }
  const RouterArmSpec& arm_spec(size_t i) const { return arms_[i]; }
  const RouterConfig& config() const { return config_; }
  const ContextualBandit& bandit() const { return bandit_; }

  // Snapshot persistence: the router's learned/stochastic state is the bandit
  // posteriors + its sampling RNG, the load EMA, and the exploration RNG.
  ContextualBandit& mutable_bandit() { return bandit_; }
  bool load_ema_initialized() const { return load_ema_.initialized(); }
  void RestoreLoadEma(double value, bool initialized) {
    load_ema_.RestoreState(value, initialized);
  }
  RngState explore_rng_state() const { return explore_rng_.SaveState(); }
  void restore_explore_rng_state(const RngState& state) { explore_rng_.RestoreState(state); }

 private:
  // Shared route core: the Theorem-4 bias vector for the current load, and
  // the exploration override + decision fill applied to a bandit selection.
  // Route and RouteWithRng differ ONLY in which RNG streams they thread
  // through these helpers.
  std::vector<double> OverloadBiases(double load, double* overload) const;
  RouteDecision FinishDecision(BanditSelection selection, std::vector<double> context,
                               double load, double overload, Rng& explore_rng) const;

  std::vector<RouterArmSpec> arms_;
  RouterConfig config_;
  ContextualBandit bandit_;
  Ema load_ema_;
  Rng explore_rng_;
};

}  // namespace iccache

#endif  // SRC_CORE_ROUTER_H_
