#include "src/serving/maintenance.h"

#include "src/common/rng.h"
#include "src/obs/trace.h"

namespace iccache {

MaintenanceScheduler::MaintenanceScheduler(const ExampleManager* manager, uint64_t seed)
    : manager_(manager), seed_(seed), worker_([this] { WorkerLoop(); }) {}

MaintenanceScheduler::~MaintenanceScheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  worker_.join();
}

void MaintenanceScheduler::Request(MaintenanceCut cut, const MaintenanceTickSpec& spec) {
  pending_ = true;
  boundaries_pending_ = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_cut_ = std::move(cut);
    job_spec_ = spec;
    job_ready_ = true;
    plan_ready_ = false;
  }
  work_cv_.notify_one();
}

MaintenancePlan MaintenanceScheduler::Collect(bool* stalled) {
  pending_ = false;
  boundaries_pending_ = 0;
  std::unique_lock<std::mutex> lock(mu_);
  if (stalled != nullptr) {
    *stalled = !plan_ready_;
  }
  done_cv_.wait(lock, [this] { return plan_ready_; });
  plan_ready_ = false;
  return std::move(plan_);
}

void MaintenanceScheduler::WorkerLoop() {
  while (true) {
    MaintenanceCut cut;
    MaintenanceTickSpec spec;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || job_ready_; });
      if (shutdown_) {
        return;
      }
      cut = std::move(job_cut_);
      spec = job_spec_;
      job_ready_ = false;
    }
    // Pure planning against the frozen cut; the tick's private stream keeps
    // it independent of every other RNG in the process.
    TraceSpan span(TraceCategory::kMaintenancePlan);
    span.SetArgs(spec.epoch);
    Rng rng(Mix64(seed_ ^ Mix64(spec.epoch)));
    MaintenancePlan plan = manager_->PlanMaintenance(cut, spec, rng);
    {
      std::lock_guard<std::mutex> lock(mu_);
      plan_ = std::move(plan);
      plan_ready_ = true;
    }
    done_cv_.notify_all();
  }
}

}  // namespace iccache
