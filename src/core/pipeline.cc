#include "src/core/pipeline.h"

#include <algorithm>

namespace iccache {

std::vector<RouterArmSpec> MakeArms(const ModelProfile& small, const ModelProfile& large) {
  const double max_cost = std::max(small.cost_per_1k_tokens, large.cost_per_1k_tokens);
  RouterArmSpec small_arm;
  small_arm.model_name = small.name;
  small_arm.normalized_cost = small.cost_per_1k_tokens / max_cost;
  small_arm.uses_examples = true;
  RouterArmSpec large_arm;
  large_arm.model_name = large.name;
  large_arm.normalized_cost = large.cost_per_1k_tokens / max_cost;
  large_arm.uses_examples = false;
  return {small_arm, large_arm};
}

RouteDecision RouteOrBypass(RequestRouter* router, const Request& request,
                            const std::vector<SelectedExample>& selected, bool router_failed,
                            const ModelProfile& fallback) {
  if (!router_failed) {
    return router->Route(request, selected);
  }
  return BypassRoute(*router, request, selected, fallback);
}

RouteDecision BypassRoute(const RequestRouter& router, const Request& request,
                          const std::vector<SelectedExample>& selected,
                          const ModelProfile& fallback) {
  RouteDecision decision;
  decision.model_name = fallback.name;
  decision.uses_examples = false;
  decision.arm = 0;
  for (size_t i = 0; i < router.num_arms(); ++i) {
    if (router.arm_spec(i).model_name == fallback.name) {
      decision.arm = i;
      break;
    }
  }
  decision.context = RequestRouter::MakeContext(request, selected);
  return decision;
}

ExampleView MakeExampleView(const Request& request, const Example& example, Rng& rng) {
  ExampleView view;
  view.relevance = StructuralRelevance(request, example.request, rng);
  view.quality = example.response_quality;
  view.source_capability = example.source_capability;
  view.tokens = example.PromptTokens();
  return view;
}

}  // namespace iccache
