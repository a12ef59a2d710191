// Quickstart: the Figure-6 integration pattern in a dozen lines.
//
// A client session wraps the IC-Cache service; Generate() runs the full
// Algorithm-1 path (retrieve examples -> route -> generate -> manage), and
// UpdateCache() registers request-response pairs explicitly.
//
//   $ ./examples/quickstart
#include <cstdio>
#include <memory>
#include <vector>

#include "src/core/client.h"
#include "src/core/service.h"
#include "src/workload/query_generator.h"

int main() {
  using namespace iccache;

  // Backend setup: model catalog, generation backend (simulated offline),
  // shared embedder, and the IC-Cache service for a Gemma 27B/2B pair.
  ModelCatalog catalog;
  GenerationSimulator backend(/*seed=*/42);
  auto embedder = std::make_shared<HashingEmbedder>();
  ServiceConfig config;  // defaults: gemma-2-27b large, gemma-2-2b small
  config.stage0.enabled = true;  // stage-0 response tier: repeats cost nothing
  IcCacheService service(config, &catalog, &backend, embedder);

  // Populate the example cache with historical traffic answered by the large
  // model, then train the stage-2 proxy offline.
  QueryGenerator history(GetDatasetProfile(DatasetId::kNaturalQuestions), 7);
  for (int i = 0; i < 1500; ++i) {
    service.SeedExample(history.Next(), 0.0);
  }
  service.PretrainProxy(1000);
  std::printf("example cache ready: %zu entries (%.1f KB plaintext)\n", service.cache().size(),
              service.cache().used_bytes() / 1024.0);

  // The Figure-6 client API.
  IcCacheClient client(&service);
  QueryGenerator users(GetDatasetProfile(DatasetId::kNaturalQuestions), 99);

  std::vector<Request> session;
  for (int i = 0; i < 10; ++i) {
    session.push_back(users.Next());
  }
  for (int i = 0; i < 10; ++i) {
    const Request& request = session[i];
    const GenerationResult response = client.Generate(request);
    const ServeOutcome& outcome = client.last_outcome();
    std::printf("req %2d [%-42.42s] -> %-11s %s examples=%zu quality=%.2f latency=%.2fs\n",
                i, request.text.c_str(), response.model_name.c_str(),
                outcome.offloaded ? "(offloaded)" : "(large)    ",
                outcome.examples_used.size(), response.latent_quality,
                response.e2e_latency_s);
    client.UpdateCache(request, response);
  }

  // Re-serve the SAME requests: each now probes the stage-0 response cache
  // at similarity 1.0 and comes back with zero generated tokens.
  std::printf("\nre-serving the same 10 requests (stage-0 response tier):\n");
  for (int i = 0; i < 10; ++i) {
    const GenerationResult response = client.Generate(session[i]);
    const ServeOutcome& outcome = client.last_outcome();
    std::printf("req %2d -> %-12s %s  tokens=%d latency=%.3fs\n", i,
                response.model_name.c_str(),
                outcome.stage0_hit ? "(stage-0 hit) " : "(regenerated) ",
                response.output_tokens, response.e2e_latency_s);
  }

  client.Stop();
  const MetricsHub& metrics = service.metrics_hub();
  const double requests = metrics.Value("requests_total");
  const double offloaded = metrics.Value("requests_offloaded_total");
  std::printf("\nserved %.0f requests, offloaded %.0f (%.0f%%)\n", requests, offloaded,
              requests > 0.0 ? 100.0 * offloaded / requests : 0.0);
  std::printf("stage-0: %.0f hits, %.0f generated tokens saved\n",
              metrics.Value("stage0_hits_total"), metrics.Value("stage0_tokens_saved_total"));
  return 0;
}
