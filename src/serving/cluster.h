// Multi-model discrete-event serving cluster: replica pools per model,
// least-loaded dispatch inside a pool, and a central event loop. The online
// experiment harnesses interleave arrival processing with policy decisions:
//
//   cluster.AdvanceTo(arrival_time);     // drain events up to the arrival
//   ... policy reads PoolLoad(), decides model, possibly adds IC examples ...
//   cluster.Submit(model, request);
//   ...
//   cluster.RunUntilIdle();              // finish everything
#ifndef SRC_SERVING_CLUSTER_H_
#define SRC_SERVING_CLUSTER_H_

#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/serving/gpu_server.h"

namespace iccache {

class ClusterSim {
 public:
  ClusterSim() = default;

  // Registers a pool of `num_replicas` servers for the model. Total GPU
  // footprint is num_replicas * model.gpus_required.
  void AddPool(const ModelProfile& model, int num_replicas, ServerConfig config = {});

  // Submits a request to the named pool at time max(now, request.arrival_time).
  Status Submit(const std::string& model_name, const ServingRequest& request);

  // Processes all events with time <= t, then sets now = t.
  void AdvanceTo(double t);

  // Runs the event loop until no work remains.
  void RunUntilIdle();

  double now() const { return now_; }

  // In-flight requests (queued + running) divided by the pool's batch
  // capacity; > 1 means requests are necessarily queueing.
  double PoolLoad(const std::string& model_name) const;

  size_t PoolInFlight(const std::string& model_name) const;

  int TotalGpus() const;

  // Completions accumulated so far, in completion order.
  const std::vector<CompletionRecord>& completions() const { return completions_; }
  std::vector<CompletionRecord> TakeCompletions();

 private:
  struct Pool {
    ModelProfile model;
    ServerConfig config;
    std::vector<std::unique_ptr<GpuServer>> servers;
  };

  struct Event {
    double time = 0.0;
    GpuServer* server = nullptr;
    bool operator>(const Event& other) const { return time > other.time; }
  };

  void ScheduleServer(GpuServer* server);
  void ProcessEventsUntil(double t);

  std::unordered_map<std::string, Pool> pools_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
  std::vector<CompletionRecord> completions_;
  double now_ = 0.0;
};

}  // namespace iccache

#endif  // SRC_SERVING_CLUSTER_H_
