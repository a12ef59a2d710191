#include "src/common/thread_pool.h"

#include <algorithm>
#include <utility>

namespace iccache {

namespace {

// A throw out of a task ends the process on whichever thread runs it, as it
// always did on a worker, rather than unwinding through a caller's Wait.
void RunTask(std::function<void()>& fn) noexcept { fn(); }

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t workers = std::max<size_t>(1, num_threads) - 1;
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task, WaitGroup* group) {
  std::vector<std::function<void()>> one;
  one.push_back(std::move(task));
  Submit(std::move(one), group);
}

void ThreadPool::Submit(std::vector<std::function<void()>> tasks, WaitGroup* group) {
  if (tasks.empty()) {
    return;
  }
  bool wake_waiters = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::function<void()>& task : tasks) {
      tasks_.push_back(Task{std::move(task), group});
    }
    in_flight_ += tasks.size();
    if (group != nullptr) {
      group->pending_ += tasks.size();
      group->submitted_ = std::chrono::steady_clock::now();
    }
    wake_waiters = blocked_waiters_ > 0;
  }
  if (tasks.size() == 1) {
    task_available_.notify_one();
  } else {
    task_available_.notify_all();
  }
  // A blocked waiter helps with the new tasks too (with no workers, it is
  // the only thread that can run them).
  if (wake_waiters) {
    progress_.notify_all();
  }
}

template <typename Done>
void ThreadPool::WaitUntil(Done done) {
  std::unique_lock<std::mutex> lock(mu_);
  while (!done()) {
    if (!tasks_.empty()) {
      RunFront(lock);
      continue;
    }
    ++blocked_waiters_;
    progress_.wait(lock);
    --blocked_waiters_;
  }
}

void ThreadPool::Wait(WaitGroup& group) {
  WaitUntil([&group] { return group.pending_ == 0; });
}

void ThreadPool::Wait() {
  WaitUntil([this] { return in_flight_ == 0; });
}

void ThreadPool::RunFront(std::unique_lock<std::mutex>& lock) {
  Task task = std::move(tasks_.front());
  tasks_.pop_front();
  if (task.group != nullptr) {
    task.group->last_started_ = std::chrono::steady_clock::now();
  }
  lock.unlock();
  RunTask(task.fn);
  task.fn = nullptr;  // a joined group's closures are all destroyed
  lock.lock();
  --in_flight_;
  const bool group_done = task.group != nullptr && --task.group->pending_ == 0;
  if ((group_done || in_flight_ == 0) && blocked_waiters_ > 0) {
    progress_.notify_all();
  }
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    task_available_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
    if (tasks_.empty()) {
      return;  // shut down with the queue drained
    }
    RunFront(lock);
  }
}

}  // namespace iccache
