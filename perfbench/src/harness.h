// perfbench harness: sample statistics, open-loop arithmetic, the run
// report and its JSON output. Everything a workload needs except the
// workload itself and the span recorder (trace.h).
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ---------------------------------------------------------------------------
// Sample statistics. Percentiles use the nearest-rank definition: the
// q-percentile of n samples is the ceil(q·n)-th smallest, so exactly
// n − ceil(q·n) samples lie beyond it.
// ---------------------------------------------------------------------------

/// Nearest-rank q-percentile (q in (0, 1]); NaN for an empty sample.
double percentile(std::vector<double> samples, double q);
/// Samples strictly beyond the nearest-rank q-percentile of n samples. A
/// timing reports a percentile only with at least ten samples beyond it.
std::int64_t samples_beyond(std::int64_t n, double q);

// ---------------------------------------------------------------------------
// Open-loop arithmetic.
// ---------------------------------------------------------------------------

/// Per-request times of one open-loop phase, in ms from the phase start.
/// Latency runs from when a request was DUE, not from when the generator
/// got round to sending it, so a generator stall delays every request due
/// during it instead of vanishing from the sample; lateness is how late the
/// generator sent each request. done_ms is +inf for a request that never
/// finished OK, so it misses every latency limit.
struct OpenLoopTimes {
  std::vector<double> due_ms, sent_ms, done_ms;

  std::vector<double> latencies_ms() const;  ///< done − due
  std::vector<double> lateness_ms() const;   ///< sent − due
};

/// Share of `attempted` requests that finished OK within `limit_ms`.
/// `ok_latencies_ms` holds the latencies of the requests that finished OK;
/// failed and refused requests are in `attempted` only, so they count as
/// misses.
double slo_attainment(std::span<const double> ok_latencies_ms,
                      std::int64_t attempted, double limit_ms);

/// True when the outstanding-request count grows over a rung: the mean of
/// the last third of the (evenly spaced) samples exceeds the mean of the
/// first third by more than `slack` requests.
bool backlog_growing(std::span<const std::int64_t> outstanding,
                     double slack);

/// Poisson arrival schedule: `count` due times (seconds from phase start)
/// at `rate_per_s`, from exponential gaps drawn with the given seed.
std::vector<double> poisson_schedule(double rate_per_s, double seconds,
                                     std::uint64_t seed);

// ---------------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::int64_t samples = 0;  ///< sample count behind a timing (0 = count)
  std::string note;
};

/// A latency sample's tail: the highest of p99, p90 and p75 that has at
/// least ten samples beyond it, as `latency_p99_ms`, `latency_p90_ms` or
/// `latency_p75_ms`. None when even p75 has fewer than ten beyond it.
std::optional<Metric> tail_latency(const std::vector<double>& samples_ms);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;     ///< Chrome trace-event JSON path (traced runs)
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

/// Threads the process runs, by role; the total must stay within the
/// 4-thread budget the workloads are defined for.
struct ThreadBudget {
  int client = 1;
  int engine_pool = 0;
  int service_workers = 0;
  int cluster = 0;
  int total() const { return client + engine_pool + service_workers + cluster; }
};

/// What a workload hands back: its metrics and its answer-check tally.
struct WorkloadResult {
  std::vector<Metric> end_to_end;  ///< untraced run
  std::vector<Metric> extra;       ///< workload-specific end-to-end metrics
  std::vector<Metric> per_layer;   ///< traced run
  std::map<std::string, std::string> params;  ///< workload parameters
  ThreadBudget threads;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;         ///< failed, refused or wrong answers
  std::int64_t wrong = 0;          ///< answers that disagreed with the oracle
  std::vector<std::string> problems;
};

/// A finite number with 12 significant digits ("null" otherwise).
std::string json_number(double v);

/// Process memory high-water mark in MiB (getrusage ru_maxrss).
double peak_rss_mib();

/// Hands memory the allocator holds free back to the system (glibc's
/// malloc_trim; a no-op elsewhere).
void release_free_memory();

/// Runs `make` (which builds a workload's whole set-up and returns it)
/// `reps` times, each on a fresh object after destroying the previous one,
/// and returns the last object; `*median_s` receives the median set-up time.
template <typename Make>
auto timed_setups(int reps, Make make, double* median_s) {
  std::vector<double> times;
  std::optional<decltype(make())> kept;
  for (int i = 0; i < reps; ++i) {
    // Tear the previous set-up down before timing the next, and hand its
    // memory back: a process that sets up once never holds it, but heap
    // left behind by a discarded set-up would count in peak_rss_mib.
    kept.reset();
    release_free_memory();
    const auto t0 = Clock::now();
    kept.emplace(make());
    times.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  *median_s = percentile(times, 0.5);
  return std::move(*kept);
}

/// One closed-loop phase: per-op latency and record, in op order.
template <typename Record>
struct ClosedLoop {
  std::vector<double> latency_ms;
  std::vector<Record> records;
  double elapsed_s = 0;

  double throughput() const {
    return elapsed_s > 0 ? static_cast<double>(records.size()) / elapsed_s : 0;
  }
  /// Latencies of the ops that finished OK.
  std::vector<double> ok_latencies() const {
    std::vector<double> v;
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (records[i].ok) v.push_back(latency_ms[i]);
    }
    return v;
  }
};

/// One client: op i starts when op i − 1 has finished. Runs `op(i, rec)`
/// until `seconds` elapsed (at least one op) or `max_ops` ops ran. An op
/// that throws leaves rec.ok false; otherwise it is set true.
template <typename Record, typename Op>
ClosedLoop<Record> closed_loop(double seconds, Op op, int max_ops = 1 << 30) {
  ClosedLoop<Record> ph;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  for (int i = 0; i < max_ops && (i == 0 || Clock::now() < deadline); ++i) {
    Record rec;
    const auto t0 = Clock::now();
    try {
      op(i, rec);
      rec.ok = true;
    } catch (const std::exception&) {
      rec.ok = false;
    }
    ph.latency_ms.push_back(ms_between(t0, Clock::now()));
    ph.records.push_back(std::move(rec));
  }
  ph.elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
  return ph;
}

/// Times of paired calls, in ms, by pair.
struct Paired {
  std::vector<double> a_ms, b_ms;

  /// Median over pairs of a − b, in µs: what a costs beyond b. Both calls
  /// of a pair run back to back on the same input, so drift of the host
  /// between pairs cancels out of each difference.
  double median_difference_us() const;
  /// Time spent in a ÷ time spent in b.
  double total_ratio() const;
};

/// Calls `a(r)` and `b(r)` back to back for r = 0, 1, ... until `seconds`
/// (finite: it becomes a clock duration) elapsed, with at least one pair,
/// or `max_pairs` pairs ran. The order alternates, so neither side always
/// runs second, on warm caches.
template <typename A, typename B>
Paired paired_calls(double seconds, int max_pairs, A a, B b) {
  Paired p;
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(seconds));
  const auto timed = [](auto& fn, int r, std::vector<double>& ms) {
    const auto t0 = Clock::now();
    fn(r);
    ms.push_back(ms_between(t0, Clock::now()));
  };
  for (int r = 0; r < max_pairs && (r == 0 || Clock::now() < deadline); ++r) {
    if (r % 2 == 0) {
      timed(a, r, p.a_ms);
      timed(b, r, p.b_ms);
    } else {
      timed(b, r, p.b_ms);
      timed(a, r, p.a_ms);
    }
  }
  return p;
}

/// Prints the human-readable report lines, a `REPORT {...}` line with every
/// metric and the run context, and, last, the one-line result JSON whose
/// metrics are exactly `declared` (end-to-end or per-layer names).
void print_report(const Options& opt, const WorkloadResult& res,
                  std::span<const std::string> declared);

/// Declared metric names, in BENCHMARK.json order.
std::span<const std::string> end_to_end_names();
std::span<const std::string> per_layer_names();

/// Per-layer metric list pre-filled with 0 for every declared name, so a
/// workload sets only the layers it exercises. set_metric throws
/// std::logic_error on a name the list does not hold.
std::vector<Metric> zeroed_per_layer();
void set_metric(std::vector<Metric>& metrics, const std::string& name,
                double value, std::int64_t samples = 0,
                const std::string& note = {});

// Workload entry points.
WorkloadResult run_lis(const Options& opt, bool nearsorted);
WorkloadResult run_mpc(const Options& opt);
WorkloadResult run_service(const Options& opt);

/// Harness self-test on synthetic samples; returns the number of failures.
int run_selftest();

}  // namespace perfbench
