//===- tests/support/thread_pool_test.cpp - Request pool contract ---------===//
//
// ThreadPool is the request pool of AnalysisBatch and of the daemon: each
// job is one whole analysis, so the pool's size is the only bound on the
// requests in flight. These tests pin the contract both callers rely on:
// the worker count is what was asked for, no more than size() jobs ever
// run at once, wait() covers jobs that other jobs submitted, the pool is
// reusable after wait(), and destruction drains the queue.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

using namespace syntox;

namespace {

TEST(ThreadPoolTest, SizeIsTheRequestedWorkerCount) {
  ThreadPool One(1);
  EXPECT_EQ(One.size(), 1u);
  ThreadPool Three(3);
  EXPECT_EQ(Three.size(), 3u);
}

TEST(ThreadPoolTest, ZeroSizeMeansHardwareConcurrencyWithAFloorOfOne) {
  ThreadPool P(0);
  unsigned Hw = std::thread::hardware_concurrency();
  EXPECT_EQ(P.size(), Hw == 0 ? 1u : Hw);
}

TEST(ThreadPoolTest, WaitReturnsOnlyAfterEveryJobRan) {
  ThreadPool P(3);
  std::atomic<int> Ran{0};
  for (int I = 0; I < 100; ++I)
    P.submit([&] { Ran.fetch_add(1, std::memory_order_relaxed); });
  P.wait();
  EXPECT_EQ(Ran.load(), 100);
}

TEST(ThreadPoolTest, JobsSubmittedByJobsAreAwaited) {
  ThreadPool P(2);
  std::atomic<int> Ran{0};
  for (int I = 0; I < 10; ++I)
    P.submit([&] {
      for (int J = 0; J < 3; ++J)
        P.submit([&] { Ran.fetch_add(1, std::memory_order_relaxed); });
      Ran.fetch_add(1, std::memory_order_relaxed);
    });
  P.wait();
  EXPECT_EQ(Ran.load(), 40);
}

TEST(ThreadPoolTest, PoolSizeBoundsJobsInFlight) {
  // The daemon and AnalysisBatch rely on this alone to bound the
  // requests in flight.
  ThreadPool P(2);
  std::atomic<int> InFlight{0};
  std::atomic<int> Peak{0};
  for (int I = 0; I < 16; ++I)
    P.submit([&] {
      int Now = InFlight.fetch_add(1) + 1;
      int Seen = Peak.load();
      while (Now > Seen && !Peak.compare_exchange_weak(Seen, Now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      InFlight.fetch_sub(1);
    });
  P.wait();
  EXPECT_EQ(InFlight.load(), 0);
  EXPECT_GE(Peak.load(), 1);
  EXPECT_LE(Peak.load(), 2);
}

TEST(ThreadPoolTest, PoolIsReusableAfterWait) {
  ThreadPool P(2);
  std::atomic<int> Ran{0};
  P.wait(); // an idle pool returns at once
  for (int Round = 1; Round <= 3; ++Round) {
    for (int I = 0; I < 20; ++I)
      P.submit([&] { Ran.fetch_add(1, std::memory_order_relaxed); });
    P.wait();
    EXPECT_EQ(Ran.load(), 20 * Round);
  }
}

TEST(ThreadPoolTest, DestructorRunsQueuedJobsBeforeJoining) {
  std::atomic<int> Ran{0};
  {
    ThreadPool P(1);
    for (int I = 0; I < 50; ++I)
      P.submit([&] { Ran.fetch_add(1, std::memory_order_relaxed); });
    // No wait(): the destructor must still drain the queue.
  }
  EXPECT_EQ(Ran.load(), 50);
}

} // namespace
