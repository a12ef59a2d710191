#include "src/common/thread_pool.h"

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace iccache {
namespace {

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();
  SUCCEED();
}

TEST(ThreadPoolTest, ParallelPartialSumsAggregate) {
  ThreadPool pool(2);
  std::vector<long> partials(8, 0);
  for (int w = 0; w < 8; ++w) {
    pool.Submit([&partials, w] {
      long sum = 0;
      for (int i = 0; i < 1000; ++i) {
        sum += w * 1000 + i;
      }
      partials[w] = sum;
    });
  }
  pool.Wait();
  long total = 0;
  for (long p : partials) {
    total += p;
  }
  long expected = 0;
  for (int i = 0; i < 8000; ++i) {
    expected += i;
  }
  EXPECT_EQ(total, expected);
}

// The waiting thread is one of the pool's threads, so a pool of 0 or 1
// threads starts no worker: nothing runs until a wait, and every task runs
// on the waiting thread, tasks that running tasks submit included. The
// destructor drains the queue the same way.
TEST(ThreadPoolTest, ZeroThreadsRunEveryTaskOnTheWaitingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  for (size_t threads : {size_t{0}, size_t{1}}) {
    SCOPED_TRACE(threads);
    std::atomic<int> ran{0};
    std::atomic<int> off_caller{0};
    const auto note = [&] {
      ran.fetch_add(1);
      if (std::this_thread::get_id() != caller) {
        off_caller.fetch_add(1);
      }
    };
    {
      ThreadPool pool(threads);
      EXPECT_EQ(pool.num_workers(), 0u);
      WaitGroup group;
      std::vector<std::function<void()>> tasks;
      for (int i = 0; i < 8; ++i) {
        tasks.push_back([&pool, &group, &note] {
          note();
          pool.Submit(note, &group);  // nested: joins the same group
        });
      }
      pool.Submit(std::move(tasks), &group);
      EXPECT_EQ(ran.load(), 0);  // no thread exists to start them
      pool.Wait(group);
      EXPECT_EQ(ran.load(), 16);

      pool.Submit([&pool, &note] {
        note();
        pool.Submit(note);
      });
      pool.Wait();
      EXPECT_EQ(ran.load(), 18);

      pool.Submit(note);  // left for the destructor
    }
    EXPECT_EQ(ran.load(), 19);
    EXPECT_EQ(off_caller.load(), 0);
  }
}

// A batch goes in whole under one group; each wave runs every task exactly
// once before Wait(group) returns.
TEST(ThreadPoolTest, BatchRunsEveryTaskExactlyOnceOverWaves) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_workers(), 3u);
  std::vector<int> runs(64, 0);  // one slot per task: no two tasks share one
  for (int wave = 0; wave < 50; ++wave) {
    WaitGroup group;
    std::vector<std::function<void()>> tasks;
    for (size_t i = 0; i < runs.size(); ++i) {
      tasks.push_back([&runs, i] { ++runs[i]; });
    }
    pool.Submit(std::move(tasks), &group);
    pool.Wait(group);
    for (size_t i = 0; i < runs.size(); ++i) {
      ASSERT_EQ(runs[i], wave + 1) << "task " << i << " in wave " << wave;
    }
    EXPECT_GE(group.last_start_delay_seconds(), 0.0);
  }
}

// Wait(group) waits for its own group only: it returns while a task of
// another group is still running on a worker.
TEST(ThreadPoolTest, WaitReturnsOnceItsOwnGroupIsDone) {
  ThreadPool pool(2);  // one worker
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  WaitGroup slow;
  pool.Submit(
      [&started, &release] {
        started.store(true);
        while (!release.load()) {
          std::this_thread::yield();
        }
      },
      &slow);
  while (!started.load()) {  // the worker holds the slow task
    std::this_thread::yield();
  }

  std::atomic<int> quick_runs{0};
  WaitGroup quick;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.push_back([&quick_runs] { quick_runs.fetch_add(1); });
  }
  pool.Submit(std::move(tasks), &quick);
  pool.Wait(quick);  // runs the quick tasks here: the worker is busy
  EXPECT_EQ(quick_runs.load(), 10);
  EXPECT_FALSE(release.load());

  release.store(true);
  pool.Wait(slow);
}

TEST(ThreadPoolTest, ReusableAcrossWaves) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), (wave + 1) * 20);
  }
}

TEST(ThreadPoolTest, StressOneThousandTasks) {
  ThreadPool pool(8);
  std::atomic<long> sum{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&sum, i] {
      long local = 0;
      for (int j = 0; j <= i % 50; ++j) {
        local += j;  // small variable-length unit of work
      }
      sum.fetch_add(local + 1);
    });
  }
  pool.Wait();
  long expected = 0;
  for (int i = 0; i < 1000; ++i) {
    long local = 0;
    for (int j = 0; j <= i % 50; ++j) {
      local += j;
    }
    expected += local + 1;
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPoolTest, SubmitFromRunningTaskIsCoveredByWait) {
  // Tasks may enqueue follow-up work; Wait must not return until the whole
  // transitive closure has executed.
  ThreadPool pool(4);
  std::atomic<int> parents{0};
  std::atomic<int> children{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&pool, &parents, &children] {
      parents.fetch_add(1);
      for (int c = 0; c < 5; ++c) {
        pool.Submit([&children] { children.fetch_add(1); });
      }
    });
  }
  pool.Wait();
  EXPECT_EQ(parents.load(), 100);
  EXPECT_EQ(children.load(), 500);
}

TEST(ThreadPoolTest, NestedSubmissionChainsResolve) {
  ThreadPool pool(3);
  std::atomic<int> depth_sum{0};
  // Each chain re-submits itself 4 times: 10 chains x 5 links = 50 executions.
  std::function<void(int)> link = [&pool, &depth_sum, &link](int remaining) {
    depth_sum.fetch_add(1);
    if (remaining > 0) {
      pool.Submit([&link, remaining] { link(remaining - 1); });
    }
  };
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&link] { link(4); });
  }
  pool.Wait();
  EXPECT_EQ(depth_sum.load(), 50);
}

TEST(ThreadPoolTest, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 10);
}

}  // namespace
}  // namespace iccache
