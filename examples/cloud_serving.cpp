// Cloud deployment scenario (section 3, "Cloud Deployment"): IC-Cache in
// front of a simulated GPU cluster, absorbing a bursty 20-minute trace by
// offloading traffic from two Gemma-27B replicas to four Gemma-2B replicas.
// Prints a per-minute dashboard: arrival rate, cluster load, offload ratio,
// and latency — then the end-of-run summary against an always-large baseline.
//
//   $ ./examples/cloud_serving
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/stats.h"
#include "src/core/service.h"
#include "src/serving/cluster.h"
#include "src/workload/query_generator.h"
#include "src/workload/trace.h"

int main() {
  using namespace iccache;

  ModelCatalog catalog;
  GenerationSimulator backend(11);
  auto embedder = std::make_shared<HashingEmbedder>();
  IcCacheService service(ServiceConfig{}, &catalog, &backend, embedder);

  DatasetProfile profile = GetDatasetProfile(DatasetId::kLmsysChat);
  profile.num_topics = 400;  // scaled-down pool density
  QueryGenerator history(profile, 21);
  for (int i = 0; i < 2000; ++i) {
    service.SeedExample(history.Next(), 0.0);
  }
  service.PretrainProxy(1200);

  const ModelProfile& large = service.large_model();
  const ModelProfile& small = service.small_model();
  ClusterSim cluster;
  cluster.AddPool(large, 2);
  cluster.AddPool(small, 4);
  std::printf("cluster: 2x %s + 4x %s (%d GPUs total)\n", large.name.c_str(),
              small.name.c_str(), cluster.TotalGpus());

  TraceConfig trace_config;
  trace_config.kind = TraceKind::kDiurnalBursty;
  trace_config.mean_rps = 2.2;
  trace_config.duration_s = 1200.0;
  trace_config.bursts_per_hour = 10.0;
  trace_config.burst_max_multiplier = 6.0;
  ArrivalTrace trace(trace_config);
  const auto arrivals = trace.GenerateArrivals();

  QueryGenerator users(profile, 31);
  uint64_t rid = 1;
  int offloaded = 0;
  int minute = -1;
  int minute_requests = 0;
  int minute_offloads = 0;
  for (double t : arrivals) {
    cluster.AdvanceTo(t);
    const int this_minute = static_cast<int>(t / 60.0);
    if (this_minute != minute) {
      if (minute >= 0 && minute % 2 == 0) {
        std::printf("  minute %2d: %3d reqs, offload %3.0f%%, large-pool load %.2f\n", minute,
                    minute_requests, minute_requests ? 100.0 * minute_offloads / minute_requests
                                                     : 0.0,
                    cluster.PoolLoad(large.name));
      }
      minute = this_minute;
      minute_requests = 0;
      minute_offloads = 0;
    }

    Request req = users.Next();
    req.arrival_time = t;
    service.ObserveLoad(cluster.PoolLoad(large.name));
    const ServeOutcome outcome = service.ServeRequest(req, t);
    offloaded += outcome.offloaded ? 1 : 0;
    ++minute_requests;
    minute_offloads += outcome.offloaded ? 1 : 0;

    ServingRequest serving;
    serving.id = rid++;
    serving.arrival_time = t;
    serving.prompt_tokens = outcome.generation.prompt_tokens;
    serving.output_tokens = outcome.generation.output_tokens;
    cluster.Submit(outcome.generation.model_name, serving);

    if (static_cast<int>(t) % 300 == 0) {
      service.RunMaintenance(t);  // off-peak decay/replay/eviction
    }
  }
  cluster.RunUntilIdle();

  std::vector<double> latencies;
  for (const auto& record : cluster.completions()) {
    latencies.push_back(record.E2eLatency());
  }
  const EmpiricalCdf latency(std::move(latencies));
  std::printf("\nIC-Cache served %zu requests: offload %.0f%%, latency P50 %.2fs P99 %.2fs\n",
              arrivals.size(), 100.0 * offloaded / arrivals.size(), latency.Quantile(0.50),
              latency.Quantile(0.99));

  // Always-large baseline on the same arrivals and hardware.
  ClusterSim baseline;
  baseline.AddPool(large, 2);
  baseline.AddPool(small, 4);
  QueryGenerator users2(profile, 31);
  rid = 1;
  for (double t : arrivals) {
    baseline.AdvanceTo(t);
    const Request req = users2.Next();
    ServingRequest serving;
    serving.id = rid++;
    serving.arrival_time = t;
    serving.prompt_tokens = req.input_tokens;
    serving.output_tokens = req.target_output_tokens;
    baseline.Submit(large.name, serving);
  }
  baseline.RunUntilIdle();
  std::vector<double> baseline_latencies;
  for (const auto& record : baseline.completions()) {
    baseline_latencies.push_back(record.E2eLatency());
  }
  const EmpiricalCdf baseline_latency(std::move(baseline_latencies));
  std::printf("always-%s baseline:            latency P50 %.2fs P99 %.2fs\n", large.name.c_str(),
              baseline_latency.Quantile(0.50), baseline_latency.Quantile(0.99));
  std::printf("=> P50 latency reduction: %.0f%%\n",
              100.0 * (1.0 - latency.Quantile(0.50) / baseline_latency.Quantile(0.50)));
  return 0;
}
