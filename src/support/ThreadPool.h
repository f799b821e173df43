//===- support/ThreadPool.h - Minimal work-queue thread pool ----*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size worker pool over a FIFO job queue: the request
/// pool of AnalysisBatch and of the syntox_serve daemon. Each job is one
/// whole analysis request, so the pool size alone bounds the requests in
/// flight. wait() blocks until the queue is drained *and* every in-flight
/// job has finished.
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_SUPPORT_THREADPOOL_H
#define SYNTOX_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace syntox {

class ThreadPool {
public:
  /// Spawns \p Size workers (0 = std::thread::hardware_concurrency,
  /// with a floor of one worker).
  explicit ThreadPool(unsigned Size = 0) {
    if (Size == 0)
      Size = std::thread::hardware_concurrency();
    if (Size == 0)
      Size = 1;
    Workers.reserve(Size);
    for (unsigned I = 0; I < Size; ++I)
      Workers.emplace_back([this] { workerLoop(); });
  }

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  ~ThreadPool() {
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      ShuttingDown = true;
    }
    WorkAvailable.notify_all();
    for (std::thread &W : Workers)
      W.join();
  }

  unsigned size() const { return static_cast<unsigned>(Workers.size()); }

  /// Enqueues a job. Safe to call from worker threads.
  void submit(std::function<void()> Job) {
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      Queue.push_back(std::move(Job));
      ++Outstanding;
    }
    WorkAvailable.notify_one();
  }

  /// Blocks until every submitted job (including jobs submitted by other
  /// jobs) has completed. The pool is reusable after wait() returns.
  void wait() {
    std::unique_lock<std::mutex> Lock(Mutex);
    AllDone.wait(Lock, [this] { return Outstanding == 0; });
  }

private:
  void workerLoop() {
    for (;;) {
      std::function<void()> Job;
      {
        std::unique_lock<std::mutex> Lock(Mutex);
        WorkAvailable.wait(
            Lock, [this] { return ShuttingDown || !Queue.empty(); });
        if (Queue.empty())
          break; // shutting down
        Job = std::move(Queue.front());
        Queue.pop_front();
      }
      Job();
      {
        std::unique_lock<std::mutex> Lock(Mutex);
        if (--Outstanding == 0)
          AllDone.notify_all();
      }
    }
  }

  std::vector<std::thread> Workers;
  std::deque<std::function<void()>> Queue;
  std::mutex Mutex;
  std::condition_variable WorkAvailable;
  std::condition_variable AllDone;
  size_t Outstanding = 0;
  bool ShuttingDown = false;
};

} // namespace syntox

#endif // SYNTOX_SUPPORT_THREADPOOL_H
