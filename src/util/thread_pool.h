// A small work-stealing-free thread pool with a parallel_for helper.
//
// The MPC simulator uses it to run machine-local computation of one round
// concurrently, mirroring how a real cluster executes a superstep. The pool
// is created once per Cluster; parallel_for blocks until every chunk is done
// (a round is a barrier, exactly like a BSP superstep). The SolverService
// (api/service.h) posts its long-lived worker loops through post().
//
// Shutdown-drain guarantee: the destructor first runs EVERY task queued
// before destruction began, then joins — queued-but-unstarted work is never
// silently dropped, so a posted task's promise is always fulfilled. The
// complementary half of the contract is post()'s stop check: once
// destruction has begun post() refuses (returns false) instead of
// enqueuing into a pool whose workers may already have exited, which would
// strand the task (and any future riding on it) forever. Pinned by
// ThreadPool.ShutdownDrains* in tests/test_util.cpp.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace monge {

class ThreadPool {
 public:
  /// threads == 0 picks hardware_concurrency (at least 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned thread_count() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueues fn for asynchronous execution on some worker and returns
  /// true. Returns false — WITHOUT enqueuing — once destruction has begun:
  /// the caller keeps ownership of the work (run it inline or drop it
  /// knowingly) instead of it vanishing into a dead queue. Every task
  /// accepted (true) is guaranteed to run: the destructor drains the queue
  /// before joining. fn must not throw (an escaping exception would
  /// std::terminate the worker); wrap fallible work in its own try/catch
  /// or a std::promise.
  bool post(std::function<void()> fn);

  /// Runs fn(i) for i in [0, n); blocks until all iterations complete.
  /// Iterations are chunked to limit scheduling overhead. Exceptions thrown
  /// by fn are rethrown (first one wins) on the calling thread.
  void parallel_for(std::int64_t n, const std::function<void(std::int64_t)>& fn);

  /// Fork-join: runs `a` and `b`, potentially concurrently, returning once
  /// both finished. `b` is offered to the pool while the caller runs `a`
  /// inline. The join then takes `b` back and runs it inline if no worker
  /// has started it, or waits for the worker that has. It never runs any
  /// other queued task, so a caller's stack holds only its own fork tree.
  /// invoke_two may be nested arbitrarily (including from worker threads)
  /// without deadlock: a join only ever waits for a started task. `b` runs
  /// even when `a` throws; `a`'s exception is rethrown first, otherwise
  /// `b`'s.
  void invoke_two(const std::function<void()>& a,
                  const std::function<void()>& b);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace monge
