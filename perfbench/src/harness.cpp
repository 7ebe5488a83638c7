#include "harness.h"

#include <sys/resource.h>

#if defined(__GLIBC__)  // defined once a C library header is in
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "monge/steady_ant_simd.h"
#include "monge/version.h"
#include "util/rng.h"

namespace perfbench {

namespace {

/// 1-based nearest rank of the q-percentile of n > 0 samples: ceil(q·n).
std::int64_t nearest_rank(std::int64_t n, double q) {
  return std::clamp<std::int64_t>(
      static_cast<std::int64_t>(std::ceil(q * static_cast<double>(n) - 1e-9)),
      1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  const auto k = static_cast<std::size_t>(
      nearest_rank(static_cast<std::int64_t>(samples.size()), q) - 1);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

std::int64_t samples_beyond(std::int64_t n, double q) {
  return n > 0 ? n - nearest_rank(n, q) : 0;
}

std::optional<Metric> tail_latency(const std::vector<double>& samples_ms) {
  const auto n = static_cast<std::int64_t>(samples_ms.size());
  for (const int level : {99, 90, 75}) {
    const double q = level / 100.0;
    const std::int64_t beyond = samples_beyond(n, q);
    if (beyond >= 10) {
      return Metric{"latency_p" + std::to_string(level) + "_ms",
                    percentile(samples_ms, q), "ms", n,
                    std::to_string(beyond) + " samples beyond"};
    }
  }
  return std::nullopt;
}

std::vector<double> OpenLoopTimes::latencies_ms() const {
  std::vector<double> v(due_ms.size());
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = done_ms[i] - due_ms[i];
  return v;
}

std::vector<double> OpenLoopTimes::lateness_ms() const {
  std::vector<double> v(due_ms.size());
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = sent_ms[i] - due_ms[i];
  return v;
}

double Paired::median_difference_us() const {
  std::vector<double> d(a_ms.size());
  for (std::size_t i = 0; i < d.size(); ++i) d[i] = 1000.0 * (a_ms[i] - b_ms[i]);
  return percentile(std::move(d), 0.5);
}

double Paired::total_ratio() const {
  double a = 0, b = 0;
  for (const double x : a_ms) a += x;
  for (const double x : b_ms) b += x;
  return b > 0 ? a / b : 0;
}

double slo_attainment(std::span<const double> ok_latencies_ms,
                      std::int64_t attempted, double limit_ms) {
  if (attempted <= 0) return 0;
  const auto within = std::count_if(
      ok_latencies_ms.begin(), ok_latencies_ms.end(),
      [&](double l) { return l <= limit_ms; });
  return static_cast<double>(within) / static_cast<double>(attempted);
}

bool backlog_growing(std::span<const std::int64_t> outstanding, double slack) {
  const std::size_t third = outstanding.size() / 3;
  if (third == 0) return false;
  const auto mean = [](std::span<const std::int64_t> s) {
    double sum = 0;
    for (const auto v : s) sum += static_cast<double>(v);
    return sum / static_cast<double>(s.size());
  };
  return mean(outstanding.last(third)) > mean(outstanding.first(third)) + slack;
}

std::vector<double> poisson_schedule(double rate_per_s, double seconds,
                                     std::uint64_t seed) {
  monge::Rng rng(seed);
  std::vector<double> due;
  due.reserve(static_cast<std::size_t>(rate_per_s * seconds * 1.1) + 16);
  double t = 0;
  for (;;) {
    // 1 - u is in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.next_double()) / rate_per_s;
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

void release_free_memory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

const std::vector<std::string> kEndToEnd = {"setup_s", "throughput_ops_s",
                                            "peak_rss_mib"};

const std::vector<std::string> kPerLayer = {
    "api.service.submit_us_p50",
    "api.service.submit_us_p99",
    "api.service.queue_wait_us_p50",
    "api.service.queue_wait_us_p99",
    "api.service.cache_hit_ratio",
    "api.service.coalesce_ratio",
    "api.service.rejected",
    "api.service.solve_errors",
    "api.solver.overhead_us.multiply",
    "api.solver.overhead_us.lis_length",
    "api.solver.overhead_us.lis_windows",
    "api.solver.overhead_us.lcs",
    "api.solver.overhead_us.window_query",
    "lis.sequential.rank_reduce_ms",
    "lis.sequential.patience_us",
    "lis.kernel.build_ms",
    "lis.kernel.merge_levels",
    "lis.kernel.windows_ms",
    "monge.engine.dense_nodes",
    "monge.engine.core_sparse_nodes",
    "monge.engine.sparse_node_ratio",
    "monge.engine.blocks_dense",
    "monge.engine.blocks_copied",
    "monge.engine.arena_bytes",
    "monge.engine.multiply_us",
    "monge.engine.pool_speedup",
    "lcs.hunt_szymanski.match_us",
    "lcs.hunt_szymanski.matches",
    "query.semilocal_index.window_batch_us",
    "query.semilocal_index.build_ms",
    "query.semilocal_index.memory_bytes",
    "lis.mpc_lis.ms",
    "lis.mpc_lis.merge_levels",
    "core.mpc_multiply.ms",
    "core.mpc_multiply.levels",
    "core.mpc_multiply.lines",
    "core.mpc_multiply.crossed_boxes",
    "core.mpc_multiply.rank_queries",
    "mpc.cluster.rounds",
    "mpc.cluster.comm_words",
    "mpc.cluster.max_machine_words",
    "mpc.cluster.round_us",
    "loadgen.lag_p99_ms",
    "trace.overhead_ratio",
};

/// Unit of every declared per-layer metric, from its name's suffix.
std::string per_layer_unit(const std::string& name) {
  const auto ends = [&](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (name.find("_us") != std::string::npos) return "us";
  if (ends("_ms") || ends(".ms")) return "ms";
  if (ends("_ratio") || ends("speedup")) return "ratio";
  if (ends("_bytes")) return "bytes";
  if (ends("words")) return "words";
  if (ends("rounds")) return "rounds";
  return "count";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void print_metric_line(const char* kind, const Metric& m) {
  std::printf("%-9s %-38s = %-14s %-7s", kind, m.name.c_str(),
              json_number(m.value).c_str(), m.unit.c_str());
  if (m.samples > 0) std::printf(" n=%lld", static_cast<long long>(m.samples));
  if (!m.note.empty()) std::printf("  (%s)", m.note.c_str());
  std::printf("\n");
}

std::string metric_object(const std::vector<Metric>& metrics, bool detail) {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const Metric& m : metrics) {
    if (!first) os << ", ";
    first = false;
    os << '"' << json_escape(m.name) << "\": {\"value\": "
       << json_number(m.value) << ", \"unit\": \"" << json_escape(m.unit)
       << '"';
    if (detail) {
      os << ", \"samples\": " << m.samples;
      if (!m.note.empty()) os << ", \"note\": \"" << json_escape(m.note) << '"';
    }
    os << '}';
  }
  os << '}';
  return os.str();
}

}  // namespace

std::span<const std::string> end_to_end_names() { return kEndToEnd; }
std::span<const std::string> per_layer_names() { return kPerLayer; }

std::vector<Metric> zeroed_per_layer() {
  std::vector<Metric> out;
  for (const std::string& name : kPerLayer) {
    out.push_back({name, 0.0, per_layer_unit(name), 0, "not exercised"});
  }
  return out;
}

void set_metric(std::vector<Metric>& metrics, const std::string& name,
                double value, std::int64_t samples, const std::string& note) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.samples = samples;
      m.note = note;
      return;
    }
  }
  throw std::logic_error("undeclared per-layer metric " + name);
}

void print_report(const Options& opt, const WorkloadResult& res,
                  std::span<const std::string> declared) {
  const unsigned nproc = std::thread::hardware_concurrency();
  const char* isa = monge::steady_ant_isa_name(monge::steady_ant_active_isa());
  std::printf("context   commit=%s source=%s monge=%s\n", opt.commit.c_str(),
              opt.source_digest.c_str(), monge::kVersionString);
  std::printf("context   nproc=%u cpu=\"%s\"\n", nproc, cpu_model().c_str());
  std::printf("context   compiler=\"%s\" build=%s steady_ant_isa=%s\n",
              compiler().c_str(), PERFBENCH_BUILD_TYPE, isa);
  std::printf(
      "context   workload=%s seed=%llu seconds=%g trace=%d threads: "
      "client=%d engine_pool=%d service_workers=%d cluster=%d total=%d\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, res.threads.client,
      res.threads.engine_pool, res.threads.service_workers,
      res.threads.cluster, res.threads.total());
  for (const auto& [k, v] : res.params) {
    std::printf("param     %s=%s\n", k.c_str(), v.c_str());
  }
  const std::vector<Metric>& main_metrics =
      opt.trace ? res.per_layer : res.end_to_end;
  for (const Metric& m : main_metrics) {
    print_metric_line(opt.trace ? "layer" : "metric", m);
  }
  for (const Metric& m : res.extra) print_metric_line("metric", m);
  const double error_rate =
      res.attempted > 0
          ? static_cast<double>(res.failed) / static_cast<double>(res.attempted)
          : 0.0;
  std::printf("metric    %-38s = %-14s %-7s attempted=%lld failed=%lld "
              "wrong=%lld\n",
              "error_rate", json_number(error_rate).c_str(), "ratio",
              static_cast<long long>(res.attempted),
              static_cast<long long>(res.failed),
              static_cast<long long>(res.wrong));
  for (const std::string& p : res.problems) {
    std::printf("problem   %s\n", p.c_str());
  }

  // Full record for compare.py and for archiving: every metric with its
  // sample count, plus the run context.
  std::ostringstream ctx;
  ctx << "{\"commit\": \"" << json_escape(opt.commit) << "\", \"source\": \""
      << json_escape(opt.source_digest) << "\", \"nproc\": " << nproc
      << ", \"cpu\": \"" << json_escape(cpu_model()) << "\", \"compiler\": \""
      << json_escape(compiler()) << "\", \"build_type\": \""
      << PERFBENCH_BUILD_TYPE << "\", \"steady_ant_isa\": \"" << isa
      << "\", \"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
      << ", \"seconds\": " << json_number(opt.seconds)
      << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"threads\": {\"client\": "
      << res.threads.client << ", \"engine_pool\": " << res.threads.engine_pool
      << ", \"service_workers\": " << res.threads.service_workers
      << ", \"cluster\": " << res.threads.cluster
      << ", \"total\": " << res.threads.total() << "}, \"params\": {";
  bool first = true;
  for (const auto& [k, v] : res.params) {
    if (!first) ctx << ", ";
    first = false;
    ctx << '"' << json_escape(k) << "\": \"" << json_escape(v) << '"';
  }
  ctx << "}}";
  std::vector<Metric> all = main_metrics;
  all.insert(all.end(), res.extra.begin(), res.extra.end());
  all.push_back({"error_rate", error_rate, "ratio", res.attempted, ""});
  std::printf("REPORT {\"context\": %s, \"metrics\": %s}\n", ctx.str().c_str(),
              metric_object(all, true).c_str());

  // The result line: exactly the declared metrics, in declared order.
  std::vector<Metric> out;
  for (const std::string& name : declared) {
    const auto it = std::find_if(main_metrics.begin(), main_metrics.end(),
                                 [&](const Metric& m) { return m.name == name; });
    if (it != main_metrics.end()) out.push_back(*it);
  }
  const bool correct = res.wrong == 0 && res.problems.empty();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(res.attempted),
              static_cast<long long>(res.failed),
              metric_object(out, false).c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
