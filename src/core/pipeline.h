// Shared Algorithm-1 pipeline steps.
//
// The synchronous IcCacheService facade and the concurrent ServingDriver run
// the SAME policy logic; this header holds the steps that would otherwise be
// duplicated between them. Selection lives in ExampleSelector (prepare/commit
// split), the example lifecycle (admission, gain accounting, replay, decay +
// eviction) lives in ExampleManager over the ExampleStore interface, and the
// router's arm table, the routing + fault-tolerance step (section 5), the
// selector's probe rate and example-view construction live here.
#ifndef SRC_CORE_PIPELINE_H_
#define SRC_CORE_PIPELINE_H_

#include <vector>

#include "src/common/rng.h"
#include "src/core/example.h"
#include "src/core/router.h"
#include "src/llm/generation.h"
#include "src/llm/model_profile.h"
#include "src/workload/request.h"

namespace iccache {

// Probe sampling (section 4.1): the fraction of offloaded requests that also
// shadow-generate the plain small-model response, so the selector learns
// from a genuine counterfactual quality gain.
inline constexpr double kSelectorProbeRate = 0.08;

// The router's two arms: the small model served with examples and the large
// model served plain, each costed relative to the costlier of the two.
std::vector<RouterArmSpec> MakeArms(const ModelProfile& small, const ModelProfile& large);

// Step 2 with section-5 fault tolerance: a healthy router Thompson-samples an
// arm; a failed router is bypassed with a direct route to the fallback
// (large) backend, preserving service continuity. The bypass decision still
// carries a context so reward plumbing stays well-formed, but callers must
// not feed rewards back for bypassed requests (the bandit never chose).
RouteDecision RouteOrBypass(RequestRouter* router, const Request& request,
                            const std::vector<SelectedExample>& selected, bool router_failed,
                            const ModelProfile& fallback);

// The bypass leg alone, usable from const/concurrent contexts (it only reads
// the router's arm table): a direct route to the fallback backend with a
// well-formed context. The driver's commit lanes call this when the router
// component is failed; callers must not feed rewards back for bypassed
// requests (the bandit never chose).
RouteDecision BypassRoute(const RequestRouter& router, const Request& request,
                          const std::vector<SelectedExample>& selected,
                          const ModelProfile& fallback);

// What the generation step is allowed to see about one selected example.
ExampleView MakeExampleView(const Request& request, const Example& example, Rng& rng);

}  // namespace iccache

#endif  // SRC_CORE_PIPELINE_H_
