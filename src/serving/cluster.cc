#include "src/serving/cluster.h"

#include <algorithm>
#include <limits>

namespace iccache {

void ClusterSim::AddPool(const ModelProfile& model, int num_replicas, ServerConfig config) {
  Pool pool;
  pool.model = model;
  pool.config = config;
  for (int i = 0; i < std::max(1, num_replicas); ++i) {
    pool.servers.push_back(std::make_unique<GpuServer>(model, config));
  }
  pools_[model.name] = std::move(pool);
}

Status ClusterSim::Submit(const std::string& model_name, const ServingRequest& request) {
  const auto it = pools_.find(model_name);
  if (it == pools_.end()) {
    return Status::NotFound("no pool for model " + model_name);
  }
  // Bring the cluster up to the arrival instant first so servers never admit
  // a request "from the future" into an earlier batch.
  AdvanceTo(request.arrival_time);

  // Least-loaded dispatch within the pool.
  GpuServer* best = nullptr;
  size_t best_load = std::numeric_limits<size_t>::max();
  for (const auto& server : it->second.servers) {
    if (server->InFlight() < best_load) {
      best_load = server->InFlight();
      best = server.get();
    }
  }
  best->Enqueue(request, now_);
  ScheduleServer(best);
  return Status::Ok();
}

void ClusterSim::ScheduleServer(GpuServer* server) {
  if (server->IterationInProgress()) {
    return;  // its completion event is already queued
  }
  const double end = server->StartIteration(now_);
  if (end >= 0.0) {
    events_.push(Event{end, server});
  }
}

void ClusterSim::ProcessEventsUntil(double t) {
  while (!events_.empty() && events_.top().time <= t) {
    const Event event = events_.top();
    events_.pop();
    now_ = std::max(now_, event.time);
    event.server->FinishIteration(event.time, &completions_);
    ScheduleServer(event.server);
  }
}

void ClusterSim::AdvanceTo(double t) {
  ProcessEventsUntil(t);
  now_ = std::max(now_, t);
}

void ClusterSim::RunUntilIdle() {
  ProcessEventsUntil(std::numeric_limits<double>::infinity());
}

double ClusterSim::PoolLoad(const std::string& model_name) const {
  const auto it = pools_.find(model_name);
  if (it == pools_.end()) {
    return 0.0;
  }
  size_t in_flight = 0;
  size_t capacity = 0;
  for (const auto& server : it->second.servers) {
    in_flight += server->InFlight();
    capacity += static_cast<size_t>(it->second.config.max_batch_size);
  }
  if (capacity == 0) {
    return 0.0;
  }
  return static_cast<double>(in_flight) / static_cast<double>(capacity);
}

size_t ClusterSim::PoolInFlight(const std::string& model_name) const {
  const auto it = pools_.find(model_name);
  if (it == pools_.end()) {
    return 0;
  }
  size_t in_flight = 0;
  for (const auto& server : it->second.servers) {
    in_flight += server->InFlight();
  }
  return in_flight;
}

int ClusterSim::TotalGpus() const {
  int total = 0;
  for (const auto& [name, pool] : pools_) {
    total += static_cast<int>(pool.servers.size()) * pool.model.gpus_required;
  }
  return total;
}

std::vector<CompletionRecord> ClusterSim::TakeCompletions() {
  std::vector<CompletionRecord> out = std::move(completions_);
  completions_.clear();
  return out;
}

}  // namespace iccache
