// Harness self-test: the percentile, open-loop, SLO-attainment, backlog,
// self-time and paired-timing arithmetic on synthetic samples with known
// answers. A broken
// harness fails here before it produces numbers.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "harness.h"
#include "trace.h"

namespace perfbench {
namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("selftest FAIL: %s\n", what.c_str());
  }
}

void expect_near(double got, double want, const std::string& what,
                 double tol = 1e-9) {
  expect(std::fabs(got - want) <= tol,
         what + ": got " + json_number(got) + ", want " + json_number(want));
}

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

void test_percentiles() {
  // 1..100 shuffled: the nearest-rank q-percentile is 100·q.
  std::vector<double> v = one_to(100);
  std::reverse(v.begin(), v.end());
  expect_near(percentile(v, 0.5), 50, "p50 of 1..100");
  expect_near(percentile(v, 0.9), 90, "p90 of 1..100");
  expect_near(percentile(v, 0.99), 99, "p99 of 1..100");
  expect_near(percentile(v, 1.0), 100, "p100 of 1..100");
  expect_near(percentile({7.0}, 0.99), 7, "p99 of one sample");
  expect(std::isnan(percentile({}, 0.5)), "percentile of no samples is NaN");
  expect(samples_beyond(100, 0.9) == 10, "10 samples beyond p90 of 100");
  expect(samples_beyond(100, 0.99) == 1, "1 sample beyond p99 of 100");
  expect(samples_beyond(1000, 0.99) == 10, "10 samples beyond p99 of 1000");
  expect(samples_beyond(0, 0.5) == 0, "no samples beyond anything of 0");
  expect(samples_beyond(20, 0.5) == 10 && samples_beyond(19, 0.5) == 9,
         "ten samples beyond the median need 20 samples");
  // The tail is the highest level with ten samples beyond it.
  const auto t1000 = tail_latency(one_to(1000));
  expect(t1000 && t1000->name == "latency_p99_ms" && t1000->value == 990,
         "tail of 1000 samples is p99");
  const auto t200 = tail_latency(one_to(200));
  expect(t200 && t200->name == "latency_p90_ms" && t200->value == 180 &&
             t200->samples == 200,
         "tail of 200 samples is p90");
  const auto t40 = tail_latency(one_to(40));
  expect(t40 && t40->name == "latency_p75_ms" && t40->value == 30,
         "tail of 40 samples is p75");
  expect(!tail_latency(one_to(39)), "no tail with fewer than ten beyond p75");
}

void test_open_loop() {
  // Requests due every 1 ms; the generator stalls from 1 ms to 5 ms and then
  // sends the overdue ones at once; each takes 0.1 ms to serve. Timed from
  // the send, every request would read 0.1 ms and the stall would vanish;
  // timed from when it was due, the stall delays every request due during it.
  OpenLoopTimes t;
  t.due_ms = {0, 1, 2, 3, 4, 5, 6};
  t.sent_ms = {0, 5, 5, 5, 5, 5, 6};
  for (const double s : t.sent_ms) t.done_ms.push_back(s + 0.1);
  const std::vector<double> lat = t.latencies_ms();
  const std::vector<double> want = {0.1, 4.1, 3.1, 2.1, 1.1, 0.1, 0.1};
  for (std::size_t i = 0; i < want.size(); ++i) {
    expect_near(lat[i], want[i], "latency from due time #" + std::to_string(i),
                1e-12);
  }
  const std::vector<double> late = t.lateness_ms();
  expect_near(percentile(late, 1.0), 4, "generator lateness max");
  expect_near(percentile(late, 0.5), 1, "generator lateness p50");
  // A request that never finished reads +inf and misses any limit.
  t.done_ms[6] = std::numeric_limits<double>::infinity();
  expect(std::isinf(t.latencies_ms()[6]), "unfinished request latency is inf");
  expect(std::isinf(percentile(t.latencies_ms(), 1.0)), "inf sorts last");

  // Poisson schedule: rate, ordering, horizon and reproducibility.
  const std::vector<double> a = poisson_schedule(2000, 5, 11);
  const std::vector<double> b = poisson_schedule(2000, 5, 11);
  const std::vector<double> c = poisson_schedule(2000, 5, 12);
  expect(a == b, "same seed gives the same schedule");
  expect(a != c, "another seed gives another schedule");
  expect(std::abs(static_cast<double>(a.size()) - 10000) < 400,
         "Poisson count near rate x seconds (" + std::to_string(a.size()) + ")");
  expect(std::is_sorted(a.begin(), a.end()) && a.front() > 0 && a.back() < 5,
         "schedule ascending inside the horizon");
}

void test_slo() {
  // Five attempted, one failed: the failure counts as a miss.
  const std::vector<double> ok = {0.5, 1.0, 2.0, 0.2};
  expect_near(slo_attainment(ok, 5, 1.0), 3.0 / 5.0, "SLO with a failure");
  expect_near(slo_attainment(ok, 4, 10.0), 1.0, "SLO all within");
  expect_near(slo_attainment({}, 0, 1.0), 0.0, "SLO of nothing");
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> with_miss = {0.5, inf, 0.7};
  expect_near(slo_attainment(with_miss, 3, 1.0), 2.0 / 3.0,
              "SLO with an unfinished request");
}

void test_backlog() {
  std::vector<std::int64_t> steady, ramp, spike;
  for (int i = 0; i < 300; ++i) {
    steady.push_back(3 + (i % 5));      // fluctuates, does not grow
    ramp.push_back(i / 2);              // grows by 150 over the rung
    spike.push_back(i == 150 ? 200 : 2);  // one burst in the middle
  }
  expect(!backlog_growing(steady, 16), "steady backlog is not growing");
  expect(backlog_growing(ramp, 16), "ramping backlog is growing");
  expect(!backlog_growing(spike, 16), "a drained burst is not growing");
  expect(!backlog_growing(std::vector<std::int64_t>{1, 50}, 16),
         "too few samples to judge");
}

void test_self_time() {
  // Parent [0, 10] ms with children [1, 3], [2, 5] (overlapping) and
  // [8, 12] (sticking out): covered = [1, 5] + [8, 10] = 6 ms, self = 4 ms.
  const Clock::time_point t0{};
  const auto at = [&](double ms) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(ms));
  };
  Tracer tr;
  const std::int64_t p = tr.add("parent", 0, 1, 0, at(0), at(10));
  tr.add("child", p, 1, 0, at(1), at(3));
  tr.add("child", p, 1, 0, at(2), at(5));
  tr.add("child", p, 1, 1, at(8), at(12));
  const auto lt = tr.layer_times();
  expect_near(lt.at("parent").self_ms, 4.0, "parent self time", 1e-6);
  expect_near(lt.at("parent").total_ms, 10.0, "parent total time", 1e-6);
  expect_near(lt.at("child").self_ms, 9.0, "leaf self time is its duration",
              1e-6);
  expect(lt.at("child").count == 3, "span count");
}

void test_setups() {
  int calls = 0;
  double median_s = -1;
  const int last = timed_setups(
      3, [&] { return ++calls; }, &median_s);
  expect(calls == 3 && last == 3, "timed_setups runs each set-up, keeps last");
  expect(median_s >= 0, "timed_setups reports a median");
}

void test_paired() {
  // The host slows down 10x over the run; the per-pair cost of a over b is
  // 0.002 ms = 2 µs throughout, except in one pair hit by a 5 ms stall.
  Paired p;
  for (int i = 0; i < 9; ++i) {
    p.b_ms.push_back(1.0 + i);
    p.a_ms.push_back(1.0 + i + 0.002 + (i == 4 ? 5.0 : 0.0));
  }
  expect_near(p.median_difference_us(), 2, "paired median difference", 1e-6);
  expect_near(p.total_ratio(), (45 + 0.018 + 5.0) / 45, "paired time ratio", 1e-9);

  // Call order alternates: a b, b a, a b; max_pairs stops the loop.
  std::string order;
  const Paired q = paired_calls(
      1e9, 3, [&](int r) { order.append("a").append(std::to_string(r)); },
      [&](int r) { order.append("b").append(std::to_string(r)); });
  expect(order == "a0b0b1a1a2b2", "paired call order " + order);
  expect(q.a_ms.size() == 3 && q.b_ms.size() == 3, "paired sample counts");
}

}  // namespace

int run_selftest() {
  failures = 0;
  test_percentiles();
  test_open_loop();
  test_slo();
  test_backlog();
  test_self_time();
  test_setups();
  test_paired();
  std::printf("selftest: %s (%d failure%s)\n", failures == 0 ? "ok" : "FAILED",
              failures, failures == 1 ? "" : "s");
  return failures;
}

}  // namespace perfbench
