#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <latch>
#include <memory>
#include <numeric>
#include <set>
#include <thread>

#include "util/fenwick.h"
#include "util/math.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace monge {
namespace {

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 3), 0);
  EXPECT_EQ(ceil_div(1, 3), 1);
  EXPECT_EQ(ceil_div(3, 3), 1);
  EXPECT_EQ(ceil_div(4, 3), 2);
  EXPECT_EQ(ceil_div(9, 3), 3);
}

TEST(Math, Logs) {
  EXPECT_EQ(floor_log2(1), 0);
  EXPECT_EQ(floor_log2(2), 1);
  EXPECT_EQ(floor_log2(3), 1);
  EXPECT_EQ(floor_log2(1024), 10);
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(1025), 11);
}

TEST(Math, IpowFrac) {
  EXPECT_EQ(ipow_frac(1024, 0.5), 32);
  EXPECT_EQ(ipow_frac(1, 0.5), 1);
  EXPECT_EQ(ipow_frac(100, 0.0), 1);
  EXPECT_EQ(ipow_frac(100, 1.0), 100);
  // Clamped to [1, n].
  EXPECT_GE(ipow_frac(7, 0.01), 1);
  EXPECT_LE(ipow_frac(7, 0.99), 7);
}

TEST(Math, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1);
  EXPECT_EQ(next_pow2(2), 2);
  EXPECT_EQ(next_pow2(3), 4);
  EXPECT_EQ(next_pow2(1000), 1024);
}

TEST(Rng, DeterministicAndDistinctSeeds) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    (void)c.next();
  }
  Rng a2(42), c2(43);
  bool differs = false;
  for (int i = 0; i < 10; ++i) differs |= (a2.next() != c2.next());
  EXPECT_TRUE(differs);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(1);
  const auto p = rng.permutation(257);
  std::set<std::int32_t> s(p.begin(), p.end());
  EXPECT_EQ(s.size(), 257u);
  EXPECT_EQ(*s.begin(), 0);
  EXPECT_EQ(*s.rbegin(), 256);
}

TEST(Fenwick, PrefixAndRange) {
  Fenwick f(10);
  for (int i = 0; i < 10; ++i) f.add(i, i);
  EXPECT_EQ(f.prefix(0), 0);
  EXPECT_EQ(f.prefix(10), 45);
  EXPECT_EQ(f.range(3, 7), 3 + 4 + 5 + 6);
  f.add(5, 100);
  EXPECT_EQ(f.range(5, 6), 105);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::int64_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::int64_t i) {
                                   if (i == 57) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ZeroAndOneIterations) {
  ThreadPool pool(3);
  int count = 0;
  pool.parallel_for(0, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count, 0);
  pool.parallel_for(1, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count, 1);
}

TEST(ThreadPool, PostRunsTasksAsynchronously) {
  ThreadPool pool(2);
  std::promise<int> p;
  auto f = p.get_future();
  ASSERT_TRUE(pool.post([&p] { p.set_value(41 + 1); }));
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ShutdownDrainsQueuedWorkAndRefusesLatePosts) {
  constexpr int kTasks = 16;
  std::vector<std::future<int>> futs;
  // -1 = nested task never queued; 0 = post() refused mid-drain (the task
  // ran inline); 1 = post() accepted (the pool was not yet stopping).
  std::atomic<int> late_post_accepted{-1};
  std::latch release(1);
  std::thread releaser;
  {
    ThreadPool pool(2);
    // Two blockers occupy both workers; everything behind them sits
    // queued-but-unstarted when the destructor runs.
    for (int i = 0; i < kTasks; ++i) {
      auto task = std::make_shared<std::packaged_task<int()>>([i, &release] {
        if (i < 2) release.wait();
        return i;
      });
      futs.push_back(task->get_future());
      ASSERT_TRUE(pool.post([task] { (*task)(); }));
    }
    // A queued task that posts MORE work mid-drain: post() must either
    // refuse (pool stopping — run inline) or guarantee the accepted task
    // still runs before join. Either way the future is fulfilled.
    auto nested = std::make_shared<std::packaged_task<int()>>([] { return 99; });
    futs.push_back(nested->get_future());
    ASSERT_TRUE(pool.post([nested, &pool, &late_post_accepted] {
      if (pool.post([nested] { (*nested)(); })) {
        late_post_accepted = 1;
      } else {
        late_post_accepted = 0;
        (*nested)();
      }
    }));
    releaser = std::thread([&release] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      release.count_down();
    });
    // ~ThreadPool: must drain all queued tasks — no deadlock, no dropped
    // futures (the SolverService destructor relies on this contract).
  }
  releaser.join();
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(futs[static_cast<std::size_t>(i)].valid());
    EXPECT_EQ(futs[static_cast<std::size_t>(i)].get(), i);
  }
  EXPECT_EQ(futs.back().get(), 99);
  EXPECT_NE(late_post_accepted.load(), -1);
}

// A join takes its own `b` back or waits for the worker that started it;
// it never runs another queued task. Each posted task forks two sleeps and
// records how many posted tasks its thread is inside: a join that ran
// queued work would start other posted tasks on its own stack.
TEST(ThreadPool, JoinRunsNoForeignTasks) {
  constexpr int kTasks = 64;
  thread_local int nesting = 0;
  std::atomic<int> max_nesting{0};
  std::latch finished(kTasks);
  {
    ThreadPool pool(3);
    const std::function<void()> nap = [] {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    };
    for (int t = 0; t < kTasks; ++t) {
      ASSERT_TRUE(pool.post([&] {
        const int depth = ++nesting;
        int seen = max_nesting.load(std::memory_order_relaxed);
        while (depth > seen && !max_nesting.compare_exchange_weak(
                                   seen, depth, std::memory_order_relaxed)) {
        }
        pool.invoke_two(nap, nap);
        --nesting;
        finished.count_down();
      }));
    }
    finished.wait();
  }
  EXPECT_EQ(max_nesting.load(), 1);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Table, RejectsMismatchedRowWidth) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::logic_error);
}

}  // namespace
}  // namespace monge
