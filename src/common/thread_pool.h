// Fixed-size worker pool behind the serving driver: its prepare, commit-lane
// and publish fan-outs, and the per-shard HNSW link pass
// (ShardedExampleCache::Flush).
#ifndef SRC_COMMON_THREAD_POOL_H_
#define SRC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace iccache {

// Join point for a SUBSET of pool tasks. ThreadPool::Wait drains the whole
// queue; a pipelined caller that keeps two task families in flight at once
// (e.g. the serving driver's commit lanes overlapping the next window's
// preparation) attaches a WaitGroup to each family and joins them
// independently: Add before submitting, Done at the end of each task, Wait
// to block until that family alone has finished.
class WaitGroup {
 public:
  void Add(size_t n = 1);
  void Done();
  void Wait();

 private:
  std::mutex mu_;
  std::condition_variable done_;
  size_t pending_ = 0;
};

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task; tasks must not throw.
  void Submit(std::function<void()> task);

  // Blocks until every submitted task has finished.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::queue<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
};

}  // namespace iccache

#endif  // SRC_COMMON_THREAD_POOL_H_
