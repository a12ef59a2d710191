// Per-dataset workload profiles mirroring the paper's Table 1. Each profile
// parameterizes the synthetic query generator so the generated stream matches
// the statistics the experiments depend on: topic-popularity skew (similarity
// prevalence, Figure 3a; long-tail example access, Figure 10), per-task
// difficulty spread (offload headroom), and token-length distributions
// (latency modelling).
#ifndef SRC_WORKLOAD_DATASET_H_
#define SRC_WORKLOAD_DATASET_H_

#include <cstddef>
#include <vector>

#include "src/workload/request.h"

namespace iccache {

struct DatasetProfile {
  DatasetId id = DatasetId::kLmsysChat;
  TaskType task = TaskType::kConversation;

  // Topic structure.
  size_t num_topics = 2000;
  double topic_zipf_exponent = 1.05;  // larger -> more similarity mass on hot topics
  size_t intents_per_topic = 4;       // sub-variants; equal intent == same answer
  size_t core_tokens_per_topic = 12;  // topic vocabulary size
  size_t tokens_per_query = 9;        // core tokens sampled into each query
  size_t filler_tokens_per_query = 3;

  // Difficulty ~ Beta(a, b) (mean a/(a+b)); harder datasets shift mass right.
  double difficulty_alpha = 2.0;
  double difficulty_beta = 3.0;

  // Token lengths, lognormal.
  double input_tokens_log_mean = 3.9;   // exp(3.9) ~ 49 tokens
  double input_tokens_log_std = 0.6;
  double output_tokens_log_mean = 5.0;  // exp(5.0) ~ 148 tokens
  double output_tokens_log_std = 0.7;

  // Table 1 sizes (example pool / online request counts), scaled down
  // uniformly by the harnesses to fit the experiment budget.
  size_t example_pool_size = 100000;
  size_t request_count = 10000;
};

// Profile lookup for the eight Table 1 datasets.
DatasetProfile GetDatasetProfile(DatasetId id);

// All profiles in Table 1 order.
std::vector<DatasetProfile> AllDatasetProfiles();

}  // namespace iccache

#endif  // SRC_WORKLOAD_DATASET_H_
