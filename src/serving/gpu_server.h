// A single model replica with Orca/vLLM-style continuous batching, simulated
// at iteration granularity: every iteration prefills newly admitted requests
// (chunked prefill) and decodes one token for every active request. Decode
// step time grows mildly with batch size (memory-bandwidth contention), so
// batching multiplies aggregate token throughput while slightly inflating
// per-request TBT — the throughput/latency shape the end-to-end experiments
// (Figures 12, 18, 20) depend on.
#ifndef SRC_SERVING_GPU_SERVER_H_
#define SRC_SERVING_GPU_SERVER_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/llm/model_profile.h"

namespace iccache {

struct ServingRequest {
  uint64_t id = 0;
  double arrival_time = 0.0;
  int prompt_tokens = 0;
  int output_tokens = 1;
};

struct CompletionRecord {
  uint64_t id = 0;
  std::string model;
  double arrival_time = 0.0;
  double admission_time = 0.0;   // entered the running batch
  double first_token_time = 0.0;
  double completion_time = 0.0;
  int prompt_tokens = 0;
  int output_tokens = 0;

  double Ttft() const { return first_token_time - arrival_time; }
  double E2eLatency() const { return completion_time - arrival_time; }
  double QueueDelay() const { return admission_time - arrival_time; }
  double Tbt() const {
    return output_tokens > 1
               ? (completion_time - first_token_time) / static_cast<double>(output_tokens - 1)
               : 0.0;
  }
};

struct ServerConfig {
  int max_batch_size = 16;
  // Per-token decode step time multiplier: step = tbt0 * (1 + slowdown*(B-1)).
  double batch_decode_slowdown = 0.05;
};

class GpuServer {
 public:
  GpuServer(const ModelProfile& model, ServerConfig config);

  // Adds a request to the waiting queue.
  void Enqueue(const ServingRequest& request, double now);

  // True when an iteration is currently executing.
  bool IterationInProgress() const { return iteration_in_progress_; }

  // Starts the next iteration if there is any work; returns the absolute
  // completion time of the iteration, or a negative value when idle.
  double StartIteration(double now);

  // Completes the running iteration at time `now` (must equal the time
  // returned by StartIteration); appends finished requests to `completions`.
  void FinishIteration(double now, std::vector<CompletionRecord>* completions);

  size_t QueueLength() const { return waiting_.size(); }
  size_t InFlight() const { return waiting_.size() + active_.size(); }
  const ModelProfile& model() const { return model_; }

 private:
  struct InFlightRequest {
    ServingRequest request;
    double admission_time = 0.0;
    double first_token_time = -1.0;
    int tokens_decoded = 0;
    bool prefilled = false;
  };

  ModelProfile model_;
  ServerConfig config_;
  std::deque<ServingRequest> waiting_;
  std::vector<InFlightRequest> active_;
  bool iteration_in_progress_ = false;
  double iteration_end_ = 0.0;
};

}  // namespace iccache

#endif  // SRC_SERVING_GPU_SERVER_H_
