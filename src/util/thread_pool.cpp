#include "util/thread_pool.h"

#include <algorithm>
#include <exception>
#include <memory>

#include "util/check.h"
#include "util/math.h"

namespace monge {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return false;
    tasks_.push(std::move(fn));
  }
  cv_.notify_one();
  return true;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::invoke_two(const std::function<void()>& a,
                            const std::function<void()>& b) {
  if (thread_count() <= 1) {
    a();
    b();
    return;
  }

  // Whoever claims `b` first runs it: a worker through the queued wrapper,
  // or the caller's join, which takes it back. The wrapper stays queued
  // after a take-back and later runs as a no-op, so the state it touches
  // then lives on the heap; it reaches `b` on the caller's frame only after
  // claiming it, and the join waits for `done` in that case.
  struct Join {
    std::mutex mu;
    std::condition_variable cv;
    bool claimed = false;
    bool done = false;
    std::exception_ptr error;
  };
  const auto join = std::make_shared<Join>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push([join, &b] {
      {
        std::lock_guard<std::mutex> inner(join->mu);
        if (join->claimed) return;
        join->claimed = true;
      }
      std::exception_ptr error;
      try {
        b();
      } catch (...) {
        error = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> inner(join->mu);
        join->error = error;
        join->done = true;
      }
      join->cv.notify_one();
    });
  }
  cv_.notify_one();

  std::exception_ptr error_a;
  try {
    a();
  } catch (...) {
    error_a = std::current_exception();
  }

  // Join: take `b` back if no worker started it, else wait for that
  // worker. No other queued task runs here, so the caller's stack holds
  // only its own fork tree. Every wait is for a started task that never
  // waits on an unstarted one, so nested forks cannot deadlock.
  std::exception_ptr error_b;
  bool taken = false;
  {
    std::unique_lock<std::mutex> lock(join->mu);
    if (!join->claimed) {
      join->claimed = true;
      taken = true;
    } else {
      join->cv.wait(lock, [&] { return join->done; });
      error_b = join->error;
    }
  }
  if (taken) {
    try {
      b();
    } catch (...) {
      error_b = std::current_exception();
    }
  }

  if (error_a) std::rethrow_exception(error_a);
  if (error_b) std::rethrow_exception(error_b);
}

void ThreadPool::parallel_for(std::int64_t n,
                              const std::function<void(std::int64_t)>& fn) {
  if (n <= 0) return;
  const auto threads = static_cast<std::int64_t>(thread_count());
  // With a single worker (or tiny n) run inline: avoids latency and makes
  // single-core debugging deterministic.
  if (threads <= 1 || n == 1) {
    for (std::int64_t i = 0; i < n; ++i) fn(i);
    return;
  }

  const std::int64_t chunks = std::min<std::int64_t>(n, 4 * threads);
  const std::int64_t chunk = ceil_div(n, chunks);

  // The join state lives on this stack frame, so the last worker's final
  // touch of it must happen entirely under done_mu: decrementing a bare
  // atomic before taking the lock would let a (possibly spurious) caller
  // wake-up observe remaining == 0 and destroy the frame while the worker
  // is still entering the mutex — a use-after-scope that crashes rarely
  // and only under scheduling pressure.
  std::exception_ptr first_error;
  std::mutex done_mu;  // guards remaining and first_error
  std::condition_variable done_cv;

  std::int64_t scheduled = 0;
  for (std::int64_t lo = 0; lo < n; lo += chunk) ++scheduled;
  std::int64_t remaining = scheduled;

  for (std::int64_t lo = 0; lo < n; lo += chunk) {
    const std::int64_t hi = std::min(n, lo + chunk);
    std::function<void()> task = [&, lo, hi] {
      std::exception_ptr error;
      try {
        for (std::int64_t i = lo; i < hi; ++i) fn(i);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(done_mu);
      if (error && !first_error) first_error = error;
      if (--remaining == 0) done_cv.notify_all();
    };
    {
      std::lock_guard<std::mutex> lock(mu_);
      tasks_.push(std::move(task));
    }
    cv_.notify_one();
  }

  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return remaining == 0; });
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace monge
