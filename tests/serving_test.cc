#include "src/serving/cluster.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/llm/model_profile.h"

namespace iccache {
namespace {

ModelProfile TestModel(double decode_tps = 100.0, double prefill_tps = 10000.0,
                       double ttft_base = 0.01) {
  ModelProfile model;
  model.name = "test-model";
  model.decode_tps = decode_tps;
  model.prefill_tps = prefill_tps;
  model.ttft_base_s = ttft_base;
  return model;
}

ServingRequest MakeRequest(uint64_t id, double arrival, int prompt = 100, int output = 50) {
  ServingRequest req;
  req.id = id;
  req.arrival_time = arrival;
  req.prompt_tokens = prompt;
  req.output_tokens = output;
  return req;
}

TEST(GpuServerTest, SingleRequestZeroLoadLatency) {
  GpuServer server(TestModel(), ServerConfig{});
  server.Enqueue(MakeRequest(1, 0.0, 100, 50), 0.0);
  std::vector<CompletionRecord> completions;
  double now = 0.0;
  while (true) {
    const double end = server.StartIteration(now);
    if (end < 0.0) {
      break;
    }
    now = end;
    server.FinishIteration(now, &completions);
  }
  ASSERT_EQ(completions.size(), 1u);
  const CompletionRecord& record = completions[0];
  // Prefill: 0.01 + 100/10000 = 0.02s; decode: 50 tokens at 10ms.
  EXPECT_NEAR(record.Ttft(), 0.02 + 0.01, 1e-9);  // prefill iter includes 1st decode token
  EXPECT_NEAR(record.E2eLatency(), 0.02 + 50 * 0.01, 1e-9);
  EXPECT_EQ(record.output_tokens, 50);
}

TEST(GpuServerTest, BatchSharesDecodeIterations) {
  ServerConfig config;
  config.max_batch_size = 8;
  GpuServer server(TestModel(), config);
  for (uint64_t i = 0; i < 4; ++i) {
    server.Enqueue(MakeRequest(i, 0.0, 100, 20), 0.0);
  }
  std::vector<CompletionRecord> completions;
  double now = 0.0;
  while (true) {
    const double end = server.StartIteration(now);
    if (end < 0.0) {
      break;
    }
    now = end;
    server.FinishIteration(now, &completions);
  }
  ASSERT_EQ(completions.size(), 4u);
  // All four decode together: completion spread should be zero.
  for (const auto& record : completions) {
    EXPECT_NEAR(record.completion_time, completions[0].completion_time, 1e-9);
  }
  // Batched decode is far faster than serial: serial would take 4*20 steps.
  EXPECT_LT(now, 4 * 20 * 0.01);
}

TEST(GpuServerTest, BatchSlowdownInflatesPerRequestTbt) {
  ServerConfig config;
  config.max_batch_size = 16;
  config.batch_decode_slowdown = 0.05;
  GpuServer server(TestModel(), config);
  for (uint64_t i = 0; i < 16; ++i) {
    server.Enqueue(MakeRequest(i, 0.0, 10, 100), 0.0);
  }
  std::vector<CompletionRecord> completions;
  double now = 0.0;
  while (true) {
    const double end = server.StartIteration(now);
    if (end < 0.0) {
      break;
    }
    now = end;
    server.FinishIteration(now, &completions);
  }
  ASSERT_EQ(completions.size(), 16u);
  // Step time = tbt0 * (1 + 0.05 * 15) = 1.75 * tbt0.
  EXPECT_NEAR(completions[0].Tbt(), 0.01 * 1.75, 1e-3);
}

TEST(GpuServerTest, QueueBeyondBatchWaits) {
  ServerConfig config;
  config.max_batch_size = 2;
  GpuServer server(TestModel(), config);
  for (uint64_t i = 0; i < 4; ++i) {
    server.Enqueue(MakeRequest(i, 0.0, 10, 10), 0.0);
  }
  EXPECT_EQ(server.QueueLength(), 4u);
  std::vector<CompletionRecord> completions;
  double now = 0.0;
  while (true) {
    const double end = server.StartIteration(now);
    if (end < 0.0) {
      break;
    }
    now = end;
    server.FinishIteration(now, &completions);
  }
  ASSERT_EQ(completions.size(), 4u);
  // Later requests must finish strictly after the first batch.
  std::vector<double> times;
  for (const auto& record : completions) {
    times.push_back(record.completion_time);
  }
  std::sort(times.begin(), times.end());
  EXPECT_GT(times[2], times[0]);
}

TEST(ClusterSimTest, SubmitToUnknownPoolFails) {
  ClusterSim cluster;
  EXPECT_FALSE(cluster.Submit("nope", MakeRequest(1, 0.0)).ok());
}

TEST(ClusterSimTest, RunUntilIdleCompletesEverything) {
  ClusterSim cluster;
  cluster.AddPool(TestModel(), 2);
  for (uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(cluster.Submit("test-model", MakeRequest(i, 0.0)).ok());
  }
  cluster.RunUntilIdle();
  EXPECT_EQ(cluster.completions().size(), 20u);
  EXPECT_EQ(cluster.PoolInFlight("test-model"), 0u);
}

TEST(ClusterSimTest, LeastLoadedDispatchBalancesReplicas) {
  ClusterSim cluster;
  cluster.AddPool(TestModel(), 4);
  for (uint64_t i = 0; i < 40; ++i) {
    cluster.Submit("test-model", MakeRequest(i, 0.0, 10, 200));
  }
  // With least-loaded dispatch over 4 replicas, in-flight counts can differ by
  // at most a small constant right after submission.
  EXPECT_EQ(cluster.PoolInFlight("test-model"), 40u);
  cluster.RunUntilIdle();
  EXPECT_EQ(cluster.completions().size(), 40u);
}

TEST(ClusterSimTest, AdvanceToProcessesDueEventsOnly) {
  ClusterSim cluster;
  cluster.AddPool(TestModel(), 1);
  cluster.Submit("test-model", MakeRequest(1, 0.0, 10, 1000));  // ~10s of decode
  cluster.AdvanceTo(1.0);
  EXPECT_EQ(cluster.completions().size(), 0u);
  EXPECT_NEAR(cluster.now(), 1.0, 1e-9);
  cluster.RunUntilIdle();
  EXPECT_EQ(cluster.completions().size(), 1u);
  EXPECT_GT(cluster.now(), 5.0);
}

TEST(ClusterSimTest, LatencyGrowsUnderOverload) {
  // Submitting far beyond capacity must inflate average E2E latency.
  auto run_at_rate = [](double rps) {
    ClusterSim cluster;
    cluster.AddPool(TestModel(), 1);
    const int n = 200;
    for (int i = 0; i < n; ++i) {
      cluster.Submit("test-model", MakeRequest(i, i / rps, 50, 50));
    }
    cluster.RunUntilIdle();
    RunningStat latency;
    for (const auto& record : cluster.completions()) {
      latency.Add(record.E2eLatency());
    }
    return latency.mean();
  };
  const double light = run_at_rate(1.0);
  const double heavy = run_at_rate(50.0);
  EXPECT_GT(heavy, light * 2.0);
}

TEST(ClusterSimTest, PoolLoadReflectsBacklog) {
  ClusterSim cluster;
  cluster.AddPool(TestModel(), 1, ServerConfig{.max_batch_size = 4, .batch_decode_slowdown = 0.05});
  EXPECT_EQ(cluster.PoolLoad("test-model"), 0.0);
  for (uint64_t i = 0; i < 8; ++i) {
    cluster.Submit("test-model", MakeRequest(i, 0.0, 10, 500));
  }
  EXPECT_NEAR(cluster.PoolLoad("test-model"), 2.0, 1e-9);  // 8 in flight / capacity 4
  cluster.RunUntilIdle();
  EXPECT_EQ(cluster.PoolLoad("test-model"), 0.0);
}

TEST(ClusterSimTest, TotalGpusSumsPools) {
  ClusterSim cluster;
  ModelProfile big = TestModel();
  big.name = "big";
  big.gpus_required = 8;
  ModelProfile small = TestModel();
  small.name = "small";
  small.gpus_required = 1;
  cluster.AddPool(big, 2);
  cluster.AddPool(small, 4);
  EXPECT_EQ(cluster.TotalGpus(), 20);
}

TEST(ClusterSimTest, CompletionRecordAccountingConsistent) {
  ClusterSim cluster;
  cluster.AddPool(TestModel(), 1);
  cluster.Submit("test-model", MakeRequest(7, 2.5, 80, 40));
  cluster.RunUntilIdle();
  ASSERT_EQ(cluster.completions().size(), 1u);
  const CompletionRecord& record = cluster.completions()[0];
  EXPECT_EQ(record.id, 7u);
  EXPECT_EQ(record.model, "test-model");
  EXPECT_GE(record.admission_time, record.arrival_time);
  EXPECT_GT(record.first_token_time, record.admission_time);
  EXPECT_GE(record.completion_time, record.first_token_time);
  EXPECT_GE(record.QueueDelay(), 0.0);
}

TEST(ClusterSimTest, TakeCompletionsDrains) {
  ClusterSim cluster;
  cluster.AddPool(TestModel(), 1);
  cluster.Submit("test-model", MakeRequest(1, 0.0));
  cluster.RunUntilIdle();
  EXPECT_EQ(cluster.TakeCompletions().size(), 1u);
  EXPECT_TRUE(cluster.completions().empty());
}

TEST(ClusterSimTest, FasterModelSustainsHigherThroughput) {
  // Throughput shape behind Figure 18: a model with ~4x decode speed clears
  // the same workload in ~4x less time.
  auto makespan = [](double decode_tps) {
    ClusterSim cluster;
    ModelProfile model = TestModel(decode_tps);
    cluster.AddPool(model, 1);
    for (int i = 0; i < 100; ++i) {
      cluster.Submit("test-model", MakeRequest(i, 0.0, 50, 100));
    }
    cluster.RunUntilIdle();
    return cluster.now();
  };
  const double slow = makespan(30.0);
  const double fast = makespan(120.0);
  EXPECT_GT(slow / fast, 3.0);
  EXPECT_LT(slow / fast, 5.0);
}

class ReplicaScalingSweep : public ::testing::TestWithParam<int> {};

TEST_P(ReplicaScalingSweep, MoreReplicasReduceMakespan) {
  const int replicas = GetParam();
  ClusterSim cluster;
  cluster.AddPool(TestModel(), replicas);
  for (int i = 0; i < 64; ++i) {
    cluster.Submit("test-model", MakeRequest(i, 0.0, 50, 100));
  }
  cluster.RunUntilIdle();
  ClusterSim single;
  single.AddPool(TestModel(), 1);
  for (int i = 0; i < 64; ++i) {
    single.Submit("test-model", MakeRequest(i, 0.0, 50, 100));
  }
  single.RunUntilIdle();
  if (replicas > 1) {
    EXPECT_LT(cluster.now(), single.now());
  } else {
    EXPECT_NEAR(cluster.now(), single.now(), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Replicas, ReplicaScalingSweep, ::testing::Values(1, 2, 4, 8));

// --- Event-ordering coverage: AdvanceTo / RunUntilIdle interleavings -------

TEST(ClusterSimTest, InterleavedAdvanceMatchesSubmitAllThenDrain) {
  // Driving the clock request-by-request (the serving driver's pattern) must
  // produce exactly the same completions as submitting everything up front
  // and draining once: Submit self-advances to the arrival instant.
  auto make_requests = [] {
    std::vector<ServingRequest> requests;
    for (uint64_t i = 0; i < 30; ++i) {
      requests.push_back(MakeRequest(i, 0.3 * static_cast<double>(i), 40 + (i % 7) * 10,
                                     20 + (i % 5) * 15));
    }
    return requests;
  };

  ClusterSim interleaved;
  interleaved.AddPool(TestModel(), 2);
  for (const ServingRequest& request : make_requests()) {
    interleaved.AdvanceTo(request.arrival_time);
    ASSERT_TRUE(interleaved.Submit("test-model", request).ok());
  }
  interleaved.RunUntilIdle();

  ClusterSim batched;
  batched.AddPool(TestModel(), 2);
  for (const ServingRequest& request : make_requests()) {
    ASSERT_TRUE(batched.Submit("test-model", request).ok());
  }
  batched.RunUntilIdle();

  ASSERT_EQ(interleaved.completions().size(), batched.completions().size());
  for (size_t i = 0; i < interleaved.completions().size(); ++i) {
    EXPECT_EQ(interleaved.completions()[i].id, batched.completions()[i].id);
    EXPECT_DOUBLE_EQ(interleaved.completions()[i].completion_time,
                     batched.completions()[i].completion_time);
  }
}

TEST(ClusterSimTest, ClockIsMonotoneUnderArbitraryAdvanceCalls) {
  ClusterSim cluster;
  cluster.AddPool(TestModel(), 1);
  cluster.Submit("test-model", MakeRequest(1, 0.0, 10, 200));
  cluster.AdvanceTo(1.0);
  EXPECT_NEAR(cluster.now(), 1.0, 1e-12);
  cluster.AdvanceTo(0.2);  // going "backwards" must not rewind the clock
  EXPECT_NEAR(cluster.now(), 1.0, 1e-12);
  cluster.AdvanceTo(1.5);
  EXPECT_NEAR(cluster.now(), 1.5, 1e-12);
  cluster.RunUntilIdle();
  EXPECT_GE(cluster.now(), 1.5);
}

TEST(ClusterSimTest, CompletionsAppendInNondecreasingTimeOrder) {
  ClusterSim cluster;
  cluster.AddPool(TestModel(), 3);
  Rng rng(0x0bde4);
  for (uint64_t i = 0; i < 60; ++i) {
    cluster.Submit("test-model",
                   MakeRequest(i, rng.Uniform(0.0, 5.0), 20 + static_cast<int>(rng.UniformInt(80)),
                               10 + static_cast<int>(rng.UniformInt(120))));
    if (i % 7 == 0) {
      cluster.AdvanceTo(static_cast<double>(i) * 0.1);  // interleave partial drains
    }
  }
  cluster.RunUntilIdle();
  ASSERT_EQ(cluster.completions().size(), 60u);
  for (size_t i = 1; i < cluster.completions().size(); ++i) {
    EXPECT_GE(cluster.completions()[i].completion_time,
              cluster.completions()[i - 1].completion_time);
  }
}

TEST(ClusterSimTest, PoolLoadAboveOneImpliesQueueingDelay) {
  ServerConfig config;
  config.max_batch_size = 4;
  ClusterSim cluster;
  cluster.AddPool(TestModel(), 1, config);
  for (uint64_t i = 0; i < 12; ++i) {
    cluster.Submit("test-model", MakeRequest(i, 0.0, 20, 100));
  }
  // 12 in flight over batch capacity 4: requests are necessarily queueing.
  EXPECT_GT(cluster.PoolLoad("test-model"), 1.0);
  cluster.RunUntilIdle();
  ASSERT_EQ(cluster.completions().size(), 12u);
  size_t delayed = 0;
  for (const auto& record : cluster.completions()) {
    EXPECT_GE(record.QueueDelay(), 0.0);
    if (record.QueueDelay() > 0.0) {
      ++delayed;
    }
  }
  EXPECT_GE(delayed, 8u);  // everything beyond the first batch waited
}

}  // namespace
}  // namespace iccache
