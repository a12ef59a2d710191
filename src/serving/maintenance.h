// Epoch-based background maintenance scheduler for the serving driver.
//
// The driver's old pipeline ran decay, knapsack eviction, and example replay
// INSIDE the serial phase: a due tick stalled the very window that triggered
// it (the top "maintenance off the critical path" ROADMAP item). This
// scheduler moves the expensive half — replay regenerations and the eviction
// knapsack — onto a dedicated thread while keeping the determinism contract:
//
//   request  (window boundary W):  the driver exports an epoch-consistent
//            MaintenanceCut (ExampleStore::ExportMaintenanceCut, all shard
//            locks shared) and hands it to the scheduler together with a
//            MaintenanceTickSpec. The tick's sampling stream is derived from
//            (seed, epoch), never from wall time or a shared generator.
//   plan     (background thread): ExampleManager::PlanMaintenance — a pure
//            function of (cut, spec, rng) — computes the mutation batch.
//   publish  (window boundary W + publish_lag): the driver collects the plan
//            (blocking only if the background thread is still computing —
//            a "maintenance-stalled window", counted and surfaced) and
//            applies it via ExampleManager::ApplyMaintenance.
//
// Because the cut is taken at a deterministic boundary, the plan is pure, and
// the publish boundary is fixed by the window schedule (plus the driver's
// deterministic early-flush points: checkpoints and end-of-run), the entire
// scheme produces identical mutations at any thread count and any lane count.
//
// At most one tick is ever in flight; the driver's due-checks are suppressed
// while one is pending.
#ifndef SRC_SERVING_MAINTENANCE_H_
#define SRC_SERVING_MAINTENANCE_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>

#include "src/core/manager.h"

namespace iccache {

class MaintenanceScheduler {
 public:
  MaintenanceScheduler(const ExampleManager* manager, uint64_t seed);
  ~MaintenanceScheduler();

  MaintenanceScheduler(const MaintenanceScheduler&) = delete;
  MaintenanceScheduler& operator=(const MaintenanceScheduler&) = delete;

  // True when no tick is requested or awaiting publish. The driver only
  // requests a new tick — and only snapshots its own state — while idle.
  bool idle() const { return !pending_; }

  // Number of window boundaries the current pending tick has aged (0 right
  // after Request); the driver publishes once this reaches its publish lag.
  size_t boundaries_pending() const { return boundaries_pending_; }
  void NoteBoundary() {
    if (pending_) {
      ++boundaries_pending_;
    }
  }

  // Hands a tick to the planner. Precondition: idle(). The tick's sampling
  // stream is Rng(Mix64(seed ^ Mix64(spec.epoch))) — derived, not shared, so
  // the plan is a pure function of its inputs wherever it runs.
  void Request(MaintenanceCut cut, const MaintenanceTickSpec& spec);

  // Retrieves the pending tick's plan, blocking until the background thread
  // finishes if it has not (sets *stalled in that case — with a sane publish
  // lag this means the planner fell behind the request path). Precondition:
  // !idle(). The scheduler is idle again afterwards.
  MaintenancePlan Collect(bool* stalled);

  // Epoch persistence: the NEXT tick ordinal. Snapshots save it so a
  // restored driver derives the same per-tick streams the uninterrupted run
  // would; restore only happens while idle.
  uint64_t next_epoch() const { return next_epoch_; }
  void set_next_epoch(uint64_t epoch) { next_epoch_ = epoch; }
  uint64_t ConsumeEpoch() { return next_epoch_++; }

 private:
  void WorkerLoop();

  const ExampleManager* manager_;
  uint64_t seed_;

  // Driver-thread-only bookkeeping.
  bool pending_ = false;
  size_t boundaries_pending_ = 0;
  uint64_t next_epoch_ = 0;

  // Handoff to the worker.
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool job_ready_ = false;
  bool plan_ready_ = false;
  bool shutdown_ = false;
  MaintenanceCut job_cut_;
  MaintenanceTickSpec job_spec_;
  MaintenancePlan plan_;
  std::thread worker_;
};

}  // namespace iccache

#endif  // SRC_SERVING_MAINTENANCE_H_
