// Worker pool behind the serving driver: its prepare, commit-lane and
// publish fan-outs, and the per-shard HNSW link pass
// (ShardedExampleCache::Flush).
//
// The thread that waits is one of the pool's threads. ThreadPool(n) starts
// n - 1 workers, and Wait runs queued tasks on the calling thread until what
// it waits for has finished, so ThreadPool(0) and ThreadPool(1) start no
// thread at all: every task runs inside Wait, on the caller. A fan-out goes
// in whole: Submit(tasks, group) queues every task under one lock and wakes
// the workers once, so the last task of a batch does not wait behind a
// chain of one-at-a-time wake-ups.
#ifndef SRC_COMMON_THREAD_POOL_H_
#define SRC_COMMON_THREAD_POOL_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace iccache {

// Join point for a SUBSET of a pool's tasks: pass it to Submit, then
// ThreadPool::Wait(group) returns once every task submitted under it has
// finished. Its state is guarded by the pool's lock, so a group belongs to
// the pool it is submitted to.
class WaitGroup {
 public:
  WaitGroup() = default;
  WaitGroup(const WaitGroup&) = delete;
  WaitGroup& operator=(const WaitGroup&) = delete;

  // Seconds from the group's latest Submit to the start of the last of its
  // tasks to leave the queue: how long the batch's slowest task waited for
  // a thread. Read it after Wait(group).
  double last_start_delay_seconds() const {
    return std::chrono::duration<double>(last_started_ - submitted_).count();
  }

 private:
  friend class ThreadPool;

  size_t pending_ = 0;
  std::chrono::steady_clock::time_point submitted_;
  std::chrono::steady_clock::time_point last_started_;
};

class ThreadPool {
 public:
  // Starts num_threads - 1 workers; the thread that waits is the last one.
  explicit ThreadPool(size_t num_threads);
  // Runs whatever is still queued, on the destroying thread alongside the
  // workers, then joins them.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Queues one task, counted in `group` when one is given. Tasks must not
  // throw (a throw terminates the process on whichever thread runs it).
  void Submit(std::function<void()> task, WaitGroup* group = nullptr);
  // Queues a whole fan-out under one lock and wakes the workers once.
  void Submit(std::vector<std::function<void()>> tasks, WaitGroup* group = nullptr);

  // Runs queued tasks on the calling thread until every task submitted under
  // `group` has finished; blocks only while the queue is empty.
  void Wait(WaitGroup& group);
  // The same, until every task submitted to the pool has finished.
  void Wait();

  size_t num_workers() const { return workers_.size(); }

 private:
  struct Task {
    std::function<void()> fn;
    WaitGroup* group = nullptr;
  };

  // Pops the front task, runs it with `lock` released and books it done.
  void RunFront(std::unique_lock<std::mutex>& lock);
  template <typename Done>
  void WaitUntil(Done done);
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable task_available_;  // workers sleep here
  std::condition_variable progress_;        // blocked waiters sleep here
  std::deque<Task> tasks_;
  std::vector<std::thread> workers_;
  size_t in_flight_ = 0;        // queued or running
  size_t blocked_waiters_ = 0;  // Wait callers asleep on progress_
  bool shutdown_ = false;
};

}  // namespace iccache

#endif  // SRC_COMMON_THREAD_POOL_H_
