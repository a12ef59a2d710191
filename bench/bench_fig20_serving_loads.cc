// Figure 20: request completion time under light / medium / heavy load
// (QPS = 1, 2, 4 on Alpaca) for Gemma-2-2B, Gemma-2-2B + IC-Cache, and
// Gemma-2-27B on identical single-replica deployments. Paper: 2B + IC-Cache
// tracks bare 2B (11-35% lower P50, 14-31% higher P99 from decode-length
// shifts) and cuts P50 by 75-83% / P99 by 69-71% vs the 27B model.
#include <cstdio>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/stats.h"
#include "src/serving/cluster.h"
#include "src/workload/trace.h"

namespace iccache {
namespace {

struct LoadResult {
  double p50 = 0.0;
  double p99 = 0.0;
};

enum class Deployment { kSmall, kSmallIc, kLarge };

LoadResult RunDeployment(Deployment deployment, double qps, benchutil::ServiceBundle& bundle,
                         uint64_t seed) {
  GenerationSimulator& sim = *bundle.sim;
  const ModelProfile& small = bundle.Small();
  const ModelProfile& large = bundle.Large();
  const ModelProfile& model = deployment == Deployment::kLarge ? large : small;
  Rng rng(seed);

  TraceConfig trace_config;
  trace_config.kind = TraceKind::kPoisson;
  trace_config.mean_rps = qps;
  trace_config.duration_s = 600.0;
  trace_config.seed = seed ^ 0x20;
  ArrivalTrace trace(trace_config);

  ClusterSim cluster;
  cluster.AddPool(model, 1);
  QueryGenerator request_gen(bundle.profile, seed ^ 0x20f);
  uint64_t rid = 1;
  for (double t : trace.GenerateArrivals()) {
    cluster.AdvanceTo(t);
    const Request req = request_gen.Next();
    GenerationResult generation;
    if (deployment == Deployment::kSmallIc) {
      const auto selected = bundle.service->selector().Select(req, small, t);
      std::vector<ExampleView> views;
      for (const auto& sel : selected) {
        const Example* example = bundle.service->cache().Get(sel.example_id);
        ExampleView view;
        view.relevance = StructuralRelevance(req, example->request, rng);
        view.quality = example->response_quality;
        view.source_capability = example->source_capability;
        view.tokens = example->PromptTokens();
        views.push_back(view);
      }
      generation = sim.Generate(small, req, views);
    } else {
      generation = sim.Generate(model, req, {});
    }
    ServingRequest serving;
    serving.id = rid++;
    serving.arrival_time = t;
    serving.prompt_tokens = generation.prompt_tokens;
    serving.output_tokens = generation.output_tokens;
    cluster.Submit(model.name, serving);
  }
  cluster.RunUntilIdle();

  std::vector<double> latencies;
  for (const auto& record : cluster.completions()) {
    latencies.push_back(record.E2eLatency());
  }
  const EmpiricalCdf latency(std::move(latencies));
  return LoadResult{latency.Quantile(0.50), latency.Quantile(0.99)};
}

}  // namespace
}  // namespace iccache

int main() {
  using namespace iccache;
  benchutil::BundleOptions options;
  options.pool_size = 2000;
  options.warmup_requests = 300;
  options.seed = 0x20a;
  auto bundle = benchutil::MakeBundle(DatasetId::kAlpaca, options);

  benchutil::PrintTitle("Figure 20: completion time vs serving load (Alpaca)");
  std::printf("  %-12s %-22s %-22s %-22s\n", "load (QPS)", "Gemma-2-2b P50/P99",
              "Gemma-2-2b+IC P50/P99", "Gemma-2-27b P50/P99");
  for (double qps : {1.0, 2.0, 4.0}) {
    const LoadResult small = RunDeployment(Deployment::kSmall, qps, *bundle, 0x201);
    const LoadResult small_ic = RunDeployment(Deployment::kSmallIc, qps, *bundle, 0x202);
    const LoadResult large = RunDeployment(Deployment::kLarge, qps, *bundle, 0x203);
    std::printf("  %-12.0f %8.2f / %-11.2f %8.2f / %-11.2f %8.2f / %-11.2f\n", qps, small.p50,
                small.p99, small_ic.p50, small_ic.p99, large.p50, large.p99);
  }
  benchutil::PrintNote(
      "paper: 2B+IC ~= 2B; P50 reduced 75-83% and P99 69-71% vs the 27B deployment");
  return 0;
}
