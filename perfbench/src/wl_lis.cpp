// Workloads lis-random and lis-nearsorted: a closed loop with one client.
//
// One Sequential Solver runs with its engine on a borrowed 3-thread pool
// (client + pool = the 4-thread budget). Each op is one LisRequest over a
// sequence of n = 2^16 with 256 windows, so the Solver builds the
// semi-local kernel internally and answers the windows from it. Eight
// distinct requests, generated from the seed before set-up, are replayed
// in turn; the Solver keeps no result cache, so a replay costs a full op.
//
// lis-random draws uniform values. lis-nearsorted is sorted order with
// about 1/64 of the positions shuffled inside 64-wide windows (the
// BM_CoreSparseVsDense generator at core ratio 1/64), which routes most
// kernel merges through the engine's core-sparse block path.
#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "api/solver.h"
#include "harness.h"
#include "lis/kernel.h"
#include "lis/sequential.h"
#include "trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

constexpr std::int64_t kN = std::int64_t{1} << 16;
constexpr int kDistinct = 8;
constexpr int kWindows = 256;
constexpr int kCheckedWindows = 16;  ///< per distinct request, vs patience
constexpr int kPoolThreads = 3;
constexpr int kSetups = 5;

struct Spec {
  const char* name;
  bool nearsorted;
  double slo_limit_ms;  ///< per-op latency limit for slo_attainment
};

/// Sorted order with n/denom/64 random 64-wide windows shuffled in place.
std::vector<std::int32_t> nearsorted_perm(std::int64_t n, std::int64_t denom,
                                          monge::Rng& rng) {
  std::vector<std::int32_t> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), std::int32_t{0});
  const std::int64_t width = 64;
  const std::int64_t windows = std::max<std::int64_t>(1, n / denom / width);
  for (std::int64_t w = 0; w < windows; ++w) {
    const auto start =
        static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(n - width + 1)));
    for (std::int64_t i = width - 1; i > 0; --i) {
      std::swap(p[static_cast<std::size_t>(start + i)],
                p[static_cast<std::size_t>(
                    start + static_cast<std::int64_t>(rng.next_below(
                                static_cast<std::uint64_t>(i + 1))))]);
    }
  }
  return p;
}

std::vector<monge::LisRequest> make_inputs(std::uint64_t seed,
                                           bool nearsorted) {
  monge::Rng rng(seed * 0x9e3779b97f4a7c15ULL + (nearsorted ? 2 : 1));
  std::vector<monge::LisRequest> reqs(kDistinct);
  for (monge::LisRequest& req : reqs) {
    req.seq.resize(static_cast<std::size_t>(kN));
    if (nearsorted) {
      const auto p = nearsorted_perm(kN, 64, rng);
      std::copy(p.begin(), p.end(), req.seq.begin());
    } else {
      for (auto& x : req.seq) x = rng.next_in(0, std::int64_t{1} << 40);
    }
    for (int w = 0; w < kWindows; ++w) {
      const std::int64_t l = rng.next_in(0, kN - 1);
      req.windows.emplace_back(l, rng.next_in(l, kN - 1));
    }
  }
  return reqs;
}

struct Setup {
  std::unique_ptr<monge::ThreadPool> pool;
  std::unique_ptr<monge::Solver> solver;
};

/// The pooled Solver of the workload (or, without the pool, the
/// single-thread reference of monge.engine.pool_speedup), warmed by one op.
Setup make_setup(const monge::LisRequest& warmup, bool with_pool) {
  Setup s;
  monge::SolverOptions o;
  if (with_pool) {
    s.pool = std::make_unique<monge::ThreadPool>(kPoolThreads);
    o.engine.pool = s.pool.get();
  }
  s.solver = std::make_unique<monge::Solver>(o);
  s.solver->solve(warmup);
  return s;
}

struct Record {
  int k = 0;
  bool ok = false;
  std::int64_t lis = 0;
  std::vector<std::int64_t> windows;
};

using Phase = ClosedLoop<Record>;

/// One op through the Solver: Solver::solve of request k.
Record solve_op(monge::Solver& solver, const std::vector<monge::LisRequest>& reqs,
                int k) {
  Record rec;
  rec.k = k;
  monge::LisResult res = solver.solve(reqs[static_cast<std::size_t>(k)]);
  rec.lis = res.lis;
  rec.windows = std::move(res.window_lis);
  rec.ok = true;
  return rec;
}

/// The untraced loop: Solver::solve per op, the requests in turn.
Phase run_solver_loop(monge::Solver& solver,
                      const std::vector<monge::LisRequest>& reqs,
                      double seconds, int max_ops = 1 << 30) {
  return closed_loop<Record>(
      seconds, [&](int i, Record& rec) { rec = solve_op(solver, reqs, i % kDistinct); },
      max_ops);
}

/// Per-op layer tallies of the traced ops.
struct LayerSamples {
  std::vector<double> rank_reduce_ms, build_ms, windows_ms;
  std::int64_t merge_levels = 0;
  monge::RepresentationStats rep{};
};

/// One traced op: the Sequential route of a windowed LisRequest
/// (api/solver.h routing table) for request k, called layer by layer with a
/// span around each public call.
Record traced_op(monge::SeaweedEngine& engine, const std::vector<monge::LisRequest>& reqs,
                 int k, std::int64_t request, Tracer& tracer, LayerSamples& layers) {
  Record rec;
  rec.k = k;
  const monge::LisRequest& req = reqs[static_cast<std::size_t>(k)];
  Tracer::Scope op(tracer, "op.lis", 0, request);
  std::vector<std::int32_t> perm;
  const auto r0 = Clock::now();
  {
    Tracer::Scope s(tracer, "lis.sequential.rank_reduce", op.id(), request);
    perm = monge::lis::rank_reduce_strict(req.seq);
  }
  const auto calls0 = engine.subunit_batch_calls();
  const auto rep0 = engine.representation_stats();
  monge::Perm kernel;
  const auto b0 = Clock::now();
  {
    Tracer::Scope s(tracer, "lis.kernel.build", op.id(), request);
    kernel = monge::lis::lis_kernel(perm, engine);
  }
  const auto w0 = Clock::now();
  {
    Tracer::Scope s(tracer, "lis.kernel.windows", op.id(), request);
    rec.lis = monge::lis::lis_from_kernel(kernel);
    rec.windows = monge::lis::kernel_window_lis_batch(kernel, req.windows);
  }
  const auto w1 = Clock::now();
  layers.rank_reduce_ms.push_back(ms_between(r0, b0));
  layers.build_ms.push_back(ms_between(b0, w0));
  layers.windows_ms.push_back(ms_between(w0, w1));
  layers.merge_levels += engine.subunit_batch_calls() - calls0;
  const auto d = engine.representation_stats() - rep0;
  layers.rep.dense_nodes += d.dense_nodes;
  layers.rep.core_sparse_nodes += d.core_sparse_nodes;
  layers.rep.blocks_dense += d.blocks_dense;
  layers.rep.blocks_copied += d.blocks_copied;
  rec.ok = true;
  return rec;
}

/// Checks every record against patience sorting (LIS length) and a sample
/// of its windows against lis::lis_window_batch; replays of one request
/// must also agree with each other on every window.
void check_records(const std::vector<monge::LisRequest>& reqs,
                   const std::vector<Record>& records, WorkloadResult& out) {
  std::vector<std::int64_t> lis(kDistinct, -1);
  std::vector<std::vector<std::int64_t>> sampled(kDistinct);
  std::vector<const Record*> first(kDistinct, nullptr);
  std::vector<std::pair<std::int64_t, std::int64_t>> sample_windows;
  std::int64_t wrong = 0;
  for (const Record& rec : records) {
    out.attempted += 1;
    if (!rec.ok) {
      out.failed += 1;
      continue;
    }
    const auto k = static_cast<std::size_t>(rec.k);
    const monge::LisRequest& req = reqs[k];
    if (lis[k] < 0) {
      lis[k] = monge::lis::lis_length(req.seq);
      sample_windows.clear();
      for (int j = 0; j < kCheckedWindows; ++j) {
        sample_windows.push_back(
            req.windows[static_cast<std::size_t>(j * (kWindows / kCheckedWindows))]);
      }
      sampled[k] = monge::lis::lis_window_batch(req.seq, sample_windows);
    }
    bool good = rec.lis == lis[k] &&
                rec.windows.size() == static_cast<std::size_t>(kWindows);
    for (int j = 0; good && j < kCheckedWindows; ++j) {
      good = rec.windows[static_cast<std::size_t>(j * (kWindows / kCheckedWindows))] ==
             sampled[k][static_cast<std::size_t>(j)];
    }
    if (good && first[k] != nullptr) good = rec.windows == first[k]->windows;
    if (good && first[k] == nullptr) first[k] = &rec;
    wrong += good ? 0 : 1;
  }
  out.failed += wrong;
  out.wrong += wrong;
  if (wrong > 0) {
    out.problems.push_back(std::to_string(wrong) +
                           " LIS answers disagree with patience sorting");
  }
}

double median_of(const std::vector<double>& v) { return percentile(v, 0.5); }

}  // namespace

WorkloadResult run_lis(const Options& opt, bool nearsorted) {
  const Spec spec = nearsorted ? Spec{"lis-nearsorted", true, 600.0}
                               : Spec{"lis-random", false, 1000.0};
  WorkloadResult out;
  out.threads = {.client = 1, .engine_pool = kPoolThreads};
  out.params = {{"n", std::to_string(kN)},
                {"distinct_requests", std::to_string(kDistinct)},
                {"windows_per_op", std::to_string(kWindows)},
                {"loop", "closed, 1 client"},
                {"slo_limit_ms", json_number(spec.slo_limit_ms)},
                {"setups", std::to_string(kSetups)}};

  const auto reqs = make_inputs(opt.seed, spec.nearsorted);
  double setup_s = 0;
  Setup setup = timed_setups(
      kSetups, [&] { return make_setup(reqs[0], true); }, &setup_s);

  if (!opt.trace) {
    const Phase ph = run_solver_loop(*setup.solver, reqs, opt.seconds);
    const double rss = peak_rss_mib();
    check_records(reqs, ph.records, out);
    const auto n = static_cast<std::int64_t>(ph.latency_ms.size());
    out.end_to_end = {
        {"setup_s", setup_s, "s", kSetups, "median of set-ups"},
        {"throughput_ops_s", ph.throughput(), "ops/s", n, ""},
        {"peak_rss_mib", rss, "MiB", 0, ""},
    };
    out.extra.push_back({"latency_p50_ms", percentile(ph.latency_ms, 0.5), "ms", n, ""});
    if (const auto tail = tail_latency(ph.latency_ms)) out.extra.push_back(*tail);
    out.extra.push_back(
        {"slo_attainment",
         slo_attainment(ph.ok_latencies(), out.attempted, spec.slo_limit_ms), "ratio", n,
         "within " + json_number(spec.slo_limit_ms) + " ms"});
    return out;
  }

  // Traced run: pairs of ops on one request, back to back — one through
  // Solver::solve (untraced, the overhead baseline) and one through the
  // Solver's delegates, traced layer by layer.
  Tracer tracer;
  LayerSamples layers;
  std::vector<Record> plain, traced;
  const Paired pairs = paired_calls(
      opt.seconds, 1 << 30,
      [&](int r) { plain.push_back(solve_op(*setup.solver, reqs, r % kDistinct)); },
      [&](int r) {
        traced.push_back(
            traced_op(setup.solver->engine(), reqs, r % kDistinct, r, tracer, layers));
      });
  const std::size_t arena = setup.solver->engine().arena_capacity();

  // Pool speed-up: the same requests on an engine without a pool.
  const int single_ops =
      std::clamp(static_cast<int>(plain.size() / 4), 2, kDistinct);
  std::vector<double> pooled;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    if (plain[i].k < single_ops) pooled.push_back(pairs.a_ms[i]);
  }
  Setup single = make_setup(reqs[0], false);
  const Phase single_ph =
      run_solver_loop(*single.solver, reqs, 1e9, single_ops);

  check_records(reqs, plain, out);
  check_records(reqs, traced, out);
  check_records(reqs, single_ph.records, out);

  const auto ops = static_cast<std::int64_t>(traced.size());
  std::vector<Metric> pl = zeroed_per_layer();
  set_metric(pl, "lis.sequential.rank_reduce_ms", median_of(layers.rank_reduce_ms), ops);
  set_metric(pl, "lis.kernel.build_ms", median_of(layers.build_ms), ops);
  set_metric(pl, "lis.kernel.merge_levels",
             static_cast<double>(layers.merge_levels) / static_cast<double>(ops),
             ops, "engine batch calls per op");
  set_metric(pl, "lis.kernel.windows_ms", median_of(layers.windows_ms), ops);
  const auto per_op = [&](std::int64_t v) {
    return static_cast<double>(v) / static_cast<double>(ops);
  };
  set_metric(pl, "monge.engine.dense_nodes", per_op(layers.rep.dense_nodes), ops);
  set_metric(pl, "monge.engine.core_sparse_nodes",
             per_op(layers.rep.core_sparse_nodes), ops);
  const auto probed = layers.rep.dense_nodes + layers.rep.core_sparse_nodes;
  set_metric(pl, "monge.engine.sparse_node_ratio",
             probed > 0 ? static_cast<double>(layers.rep.core_sparse_nodes) /
                              static_cast<double>(probed)
                        : 0.0,
             ops);
  set_metric(pl, "monge.engine.blocks_dense", per_op(layers.rep.blocks_dense), ops);
  set_metric(pl, "monge.engine.blocks_copied", per_op(layers.rep.blocks_copied), ops);
  set_metric(pl, "monge.engine.arena_bytes", static_cast<double>(arena), 0);
  set_metric(pl, "monge.engine.pool_speedup",
             median_of(single_ph.latency_ms) / median_of(pooled),
             static_cast<std::int64_t>(single_ph.latency_ms.size()),
             "1-thread op time / 3-thread pool op time, same requests");
  set_metric(pl, "api.solver.overhead_us.lis_windows", pairs.median_difference_us(),
             ops, "paired Solver::solve minus traced delegates, median");
  set_metric(pl, "trace.overhead_ratio", pairs.total_ratio(), ops,
             "traced / untraced throughput over the same paired ops");
  out.per_layer = std::move(pl);
  out.params["trace_file"] = opt.trace_out;
  print_layer_times(tracer, static_cast<double>(ops));
  if (!tracer.write_chrome_json(opt.trace_out, spec.name)) {
    out.problems.push_back("could not write " + opt.trace_out);
  }
  return out;
}

}  // namespace perfbench
