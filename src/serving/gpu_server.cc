#include "src/serving/gpu_server.h"

#include <algorithm>

namespace iccache {

GpuServer::GpuServer(const ModelProfile& model, ServerConfig config)
    : model_(model), config_(config) {}

void GpuServer::Enqueue(const ServingRequest& request, double now) {
  (void)now;
  waiting_.push_back(request);
}

double GpuServer::StartIteration(double now) {
  if (iteration_in_progress_) {
    return iteration_end_;
  }
  if (active_.empty() && waiting_.empty()) {
    return -1.0;
  }

  // Admit new requests up to the batch limit; their prompts are prefilled
  // during this iteration.
  int prefill_tokens = 0;
  while (static_cast<int>(active_.size()) < config_.max_batch_size && !waiting_.empty()) {
    InFlightRequest in_flight;
    in_flight.request = waiting_.front();
    waiting_.pop_front();
    in_flight.admission_time = now;
    active_.push_back(in_flight);
    prefill_tokens += std::max(0, in_flight.request.prompt_tokens);
  }

  double duration = 0.0;
  if (prefill_tokens > 0) {
    duration += model_.ttft_base_s +
                static_cast<double>(prefill_tokens) / std::max(model_.prefill_tps, 1.0);
  }
  // One decode token for every active request (including the just-prefilled
  // ones: prefill emits the first token).
  const size_t batch = active_.size();
  if (batch > 0) {
    duration +=
        model_.Tbt() * (1.0 + config_.batch_decode_slowdown * static_cast<double>(batch - 1));
  }

  iteration_in_progress_ = true;
  iteration_end_ = now + duration;
  return iteration_end_;
}

void GpuServer::FinishIteration(double now, std::vector<CompletionRecord>* completions) {
  iteration_in_progress_ = false;
  std::vector<InFlightRequest> still_active;
  still_active.reserve(active_.size());
  for (InFlightRequest& in_flight : active_) {
    if (!in_flight.prefilled) {
      in_flight.prefilled = true;
      in_flight.first_token_time = now;
    }
    ++in_flight.tokens_decoded;
    if (in_flight.tokens_decoded >= in_flight.request.output_tokens) {
      CompletionRecord record;
      record.id = in_flight.request.id;
      record.model = model_.name;
      record.arrival_time = in_flight.request.arrival_time;
      record.admission_time = in_flight.admission_time;
      record.first_token_time = in_flight.first_token_time;
      record.completion_time = now;
      record.prompt_tokens = in_flight.request.prompt_tokens;
      record.output_tokens = in_flight.request.output_tokens;
      completions->push_back(record);
    } else {
      still_active.push_back(in_flight);
    }
  }
  active_ = std::move(still_active);
}

}  // namespace iccache
