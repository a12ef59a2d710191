// IcCacheService: the synchronous Algorithm-1 facade tying the Example
// Selector, Request Router, and Example Manager together in front of the
// model backends. All policy logic is shared with the concurrent
// ServingDriver: selection in ExampleSelector, routing + fault bypass in
// src/core/pipeline.h, and the example lifecycle in ExampleManager over the
// ExampleStore interface — this class only sequences the steps and layers on
// the observed-feedback model, overhead accounting, and metrics.
//
//   ServeRequest:
//     1. RetrieveExamples  — two-stage selection targeting the small model;
//     2. RouteRequest      — bandit + load bias chooses the serving model;
//     3. GenerateResponse  — examples are prepended iff the chosen arm uses
//                            them (offloaded small-model serving);
//     4. ManageExamples    — feedback to router/selector, per-use gain
//                            accounting, admission of the new pair.
//
// Fault tolerance (section 5): when the selector or router component is
// marked failed, the request bypasses it — no examples, or a direct route to
// the default (large) backend — preserving service continuity.
#ifndef SRC_CORE_SERVICE_H_
#define SRC_CORE_SERVICE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/core/example_cache.h"
#include "src/core/manager.h"
#include "src/core/proxy_model.h"
#include "src/core/router.h"
#include "src/core/selector.h"
#include "src/core/stage0_cache.h"
#include "src/llm/generation.h"
#include "src/llm/model_profile.h"
#include "src/obs/metrics.h"

namespace iccache {

struct ServiceConfig {
  std::string small_model = "gemma-2-2b";
  std::string large_model = "gemma-2-27b";

  // Stage-0 response tier: probe a bounded semantic response cache before
  // stage-1 retrieval; a confident hit serves the cached response at zero
  // generation cost. Off by default. The learned hit threshold, TTL, and
  // quality-feedback invalidation all live in Stage0Config.
  Stage0Config stage0;

  SelectorConfig selector;
  RouterConfig router;
  ManagerConfig manager;
  ExampleCacheConfig cache;

  // Component overheads charged per request (section 6.3, Figure 18); the
  // stage-0 probe's overhead is a constant in service.cc.
  static constexpr double selector_stage1_latency_s = 0.020;
  static constexpr double selector_stage2_latency_s = 0.030;
  static constexpr double router_latency_s = 0.010;

  // Persistence (src/persist): with `snapshot_path` set, `restore_on_start`
  // warm-starts the service from that file at construction (missing file =
  // cold start; other failures surface via restore_status()). SaveSnapshot
  // writes the same pool format the concurrent ServingDriver uses, so
  // snapshots interchange between the two stacks.
  std::string snapshot_path;
  bool restore_on_start = false;

  uint64_t seed = 0x5e41;
};

struct ServeOutcome {
  GenerationResult generation;
  RouteDecision route;
  std::vector<SelectedExample> examples_used;  // empty when not offloaded
  bool offloaded = false;                      // served by the small model
  double overhead_latency_s = 0.0;             // selector + router overhead
  uint64_t admitted_example_id = 0;
  double observed_quality = 0.0;               // post-noise feedback signal

  // Stage-0 hit: the response was served from the response cache (zero
  // generation cost; generation.output_tokens == 0, no routing happened).
  bool stage0_hit = false;
  double stage0_similarity = 0.0;
};

class IcCacheService {
 public:
  IcCacheService(ServiceConfig config, const ModelCatalog* catalog,
                 GenerationSimulator* generator, std::shared_ptr<const Embedder> embedder);

  // Seeds the example pool with a historical request answered by the large
  // model (the paper's pool-initialization protocol, Appendix A.4).
  uint64_t SeedExample(const Request& request, double now);

  // Offline proxy training (section 4.1): the serving platform samples
  // requests, shadow-generates the small model's response with and without a
  // candidate example, and uses the contrast as the helpfulness label — the
  // reward-model/feedback pipeline the paper trains its TinyBERT proxy on.
  // Half the samples pair a query with a retrieved neighbour (hard
  // positives), half with a random example (negatives).
  void PretrainProxy(size_t num_samples);

  // Full Algorithm-1 serving path.
  ServeOutcome ServeRequest(const Request& request, double now);

  // Current cluster utilization (1.0 == at capacity) from the harness.
  void ObserveLoad(double load);

  // Periodic maintenance: utility decay, replay pass, eviction.
  void RunMaintenance(double now);

  // Fault injection (section 5).
  void set_selector_failed(bool failed) { selector_failed_ = failed; }
  void set_router_failed(bool failed) { router_failed_ = failed; }

  // --- Persistence ---------------------------------------------------------

  // Atomically writes the full learned state: pool, selector/manager/proxy/
  // router adaptation, the service feedback RNG and baseline-quality EMA,
  // and the (caller-owned) generator's sampling stream.
  Status SaveSnapshot(const std::string& path);

  // Restores into this freshly constructed service (the cache must be
  // empty). A restored service continues byte-identically to the one that
  // wrote the snapshot. Note the generator stream is restored into the
  // caller-owned GenerationSimulator.
  Status RestoreSnapshot(const std::string& path);

  const Status& restore_status() const { return restore_status_; }
  bool restored_from_snapshot() const { return restored_from_snapshot_; }

  ExampleCache& cache() { return cache_; }
  const ExampleCache& cache() const { return cache_; }
  ExampleSelector& selector() { return selector_; }
  RequestRouter& router() { return router_; }
  ExampleManager& manager() { return manager_; }
  Stage0ResponseCache& stage0() { return stage0_; }
  ProxyUtilityModel& proxy() { return proxy_; }
  // Service counters, named as the driver names the same quantities
  // (requests_total, requests_offloaded_total, stage0_hits_total, ...).
  MetricsHub& metrics_hub() { return hub_; }
  const MetricsHub& metrics_hub() const { return hub_; }
  const ServiceConfig& config() const { return config_; }
  const ModelProfile& small_model() const { return small_model_; }
  const ModelProfile& large_model() const { return large_model_; }

 private:
  std::vector<ExampleView> BuildExampleViews(const Request& request,
                                             const std::vector<SelectedExample>& selected);

  ServiceConfig config_;
  const ModelCatalog* catalog_;
  GenerationSimulator* generator_;
  ModelProfile small_model_;
  ModelProfile large_model_;

  ExampleCache cache_;
  Stage0ResponseCache stage0_;
  ProxyUtilityModel proxy_;
  ExampleSelector selector_;
  RequestRouter router_;
  ExampleManager manager_;
  MetricsHub hub_;
  // Counter handles, registered once at construction (stable for the hub's
  // lifetime).
  MetricCounter* m_requests_ = hub_.Counter("requests_total");
  MetricCounter* m_offloaded_ = hub_.Counter("requests_offloaded_total");
  MetricCounter* m_examples_prepended_ = hub_.Counter("examples_prepended");
  MetricCounter* m_latency_sum_ = hub_.Counter("latency_sum_s");
  MetricCounter* m_quality_sum_ = hub_.Counter("quality_sum");
  MetricCounter* m_selector_bypassed_ = hub_.Counter("selector_bypassed");
  MetricCounter* m_router_bypassed_ = hub_.Counter("router_bypassed");
  MetricCounter* m_selector_probes_ = hub_.Counter("selector_probes");
  MetricCounter* m_preference_ = hub_.Counter("preference_solicitations");
  MetricCounter* m_stage0_hits_ = hub_.Counter("stage0_hits_total");
  MetricCounter* m_stage0_probes_ = hub_.Counter("stage0_probes_total");
  MetricCounter* m_stage0_invalidations_ = hub_.Counter("stage0_invalidations_total");
  MetricCounter* m_stage0_expired_ = hub_.Counter("stage0_expired_total");
  MetricCounter* m_stage0_tokens_saved_ = hub_.Counter("stage0_tokens_saved_total");
  MetricCounter* m_replay_examined_ = hub_.Counter("replay_examined");
  MetricCounter* m_replayed_ = hub_.Counter("replayed_examples_total");
  MetricCounter* m_replay_improved_ = hub_.Counter("replay_improved");
  MetricCounter* m_proxy_pretrain_ = hub_.Counter("proxy_pretrain_samples");
  Ema baseline_quality_;
  Rng rng_;

  bool selector_failed_ = false;
  bool router_failed_ = false;

  // Latest `now` this service has observed; stamps snapshots so a warm
  // start (service or driver) resumes the maintenance cadence on the same
  // clock as the manager's decay cursor.
  double last_now_ = 0.0;
  Status restore_status_;
  bool restored_from_snapshot_ = false;
};

}  // namespace iccache

#endif  // SRC_CORE_SERVICE_H_
