// Workload mpc-lis: a closed loop with one client on the simulated cluster.
//
// One Solver runs the MpcSim backend on an auto-provisioned δ = 0.5
// cluster with one thread, so machines run inline in each round. Each op
// is one LisRequest over a random sequence followed by one full random
// MultiplyRequest, both at n = 2^10 — the same n, so the auto-provisioned
// cluster is reused across requests instead of being rebuilt. Four distinct
// op inputs, generated from the seed before set-up, are replayed in turn.
//
// Besides wall-clock the run reports the paper's own measures — cluster
// rounds, words communicated and the peak words on one machine per op —
// which are exact counts.
//
// Why one cluster thread: at this n a round's machine work is a few
// microseconds, so a 3-thread cluster spends most of each of the ~25 000
// rounds per op handing work to its pool and waiting at the round barrier.
// It ran the op about 2.3x slower than one thread, and on a busy shared host
// one late thread stalls every round, which spread run-to-run throughput by
// more than 20%.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "api/solver.h"
#include "core/mpc_multiply.h"
#include "harness.h"
#include "lis/mpc_lis.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr std::int64_t kN = std::int64_t{1} << 10;
constexpr int kDistinct = 4;
constexpr int kClusterThreads = 1;
constexpr int kSetups = 5;
constexpr double kSloLimitMs = 4000.0;

struct OpInput {
  monge::LisRequest lis;
  monge::MultiplyRequest mul;
};

std::vector<OpInput> make_inputs(std::uint64_t seed) {
  monge::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 3);
  std::vector<OpInput> in(kDistinct);
  for (OpInput& op : in) {
    op.lis.seq.resize(static_cast<std::size_t>(kN));
    for (auto& x : op.lis.seq) x = rng.next_in(0, std::int64_t{1} << 40);
    op.mul.a = monge::Perm::random(kN, rng);
    op.mul.b = monge::Perm::random(kN, rng);
  }
  return in;
}

monge::SolverOptions mpc_options() {
  monge::SolverOptions o;
  o.backend = monge::SolverBackend::kMpcSim;
  o.mpc_delta = 0.5;
  o.cluster.threads = kClusterThreads;
  return o;
}

/// Warm: one op provisions the cluster (lazily built on first use).
std::unique_ptr<monge::Solver> make_setup(const OpInput& warmup) {
  auto solver = std::make_unique<monge::Solver>(mpc_options());
  solver->solve(warmup.lis);
  solver->solve(warmup.mul);
  return solver;
}

struct Record {
  int k = 0;
  bool ok = false;
  std::int64_t lis = 0;
  monge::Perm product;
  std::int64_t rounds = 0;
  std::int64_t comm_words = 0;
  double lis_ms = 0;
  double mul_ms = 0;
};

using Phase = ClosedLoop<Record>;

/// Checks every record against the Sequential backend on an engine with
/// no pool and core_density_cutoff = 0 (the dense differential oracle).
void check_records(const std::vector<OpInput>& in,
                   const std::vector<Record>& records, WorkloadResult& out) {
  monge::SolverOptions o;
  o.engine.core_density_cutoff = 0.0;
  monge::Solver oracle(o);
  std::vector<std::int64_t> lis(kDistinct, -1);
  std::vector<monge::Perm> product(kDistinct);
  std::int64_t wrong = 0;
  for (const Record& rec : records) {
    out.attempted += 1;
    if (!rec.ok) {
      out.failed += 1;
      continue;
    }
    const auto k = static_cast<std::size_t>(rec.k);
    if (lis[k] < 0) {
      lis[k] = oracle.solve(in[k].lis).lis;
      product[k] = oracle.solve(in[k].mul).c;
    }
    if (rec.lis != lis[k] || !(rec.product == product[k])) ++wrong;
  }
  out.failed += wrong;
  out.wrong += wrong;
  if (wrong > 0) {
    out.problems.push_back(std::to_string(wrong) +
                           " MpcSim answers disagree with the Sequential backend");
  }
}

double mean_of(const std::vector<Record>& recs, std::int64_t Record::*field) {
  double sum = 0;
  for (const Record& r : recs) sum += static_cast<double>(r.*field);
  return recs.empty() ? 0 : sum / static_cast<double>(recs.size());
}

}  // namespace

WorkloadResult run_mpc(const Options& opt) {
  WorkloadResult out;
  out.threads = {.client = 1, .cluster = kClusterThreads};
  out.params = {{"n", std::to_string(kN)},
                {"delta", "0.5"},
                {"op", "LisRequest then full MultiplyRequest"},
                {"distinct_ops", std::to_string(kDistinct)},
                {"loop", "closed, 1 client"},
                {"slo_limit_ms", json_number(kSloLimitMs)},
                {"setups", std::to_string(kSetups)}};

  const auto in = make_inputs(opt.seed);
  double setup_s = 0;
  std::unique_ptr<monge::Solver> solver =
      timed_setups(kSetups, [&] { return make_setup(in[0]); }, &setup_s);
  monge::mpc::Cluster& cluster = *solver->cluster();
  out.params["machines"] = std::to_string(cluster.machines());
  out.params["space_words"] = std::to_string(cluster.space_words());

  // The Solver route of both requests (api/solver.h routing table).
  const auto solver_op = [&](int i, Record& rec) {
    rec.k = i % kDistinct;
    const OpInput& op = in[static_cast<std::size_t>(rec.k)];
    const std::int64_t words0 = cluster.stats().total_comm_words;
    const auto t0 = Clock::now();
    const monge::LisResult lr = solver->solve(op.lis);
    const auto t1 = Clock::now();
    monge::MultiplyResult mr = solver->solve(op.mul);
    rec.mul_ms = ms_between(t1, Clock::now());
    rec.lis_ms = ms_between(t0, t1);
    rec.lis = lr.lis;
    rec.product = std::move(mr.c);
    rec.rounds = lr.rounds + mr.report.rounds;
    rec.comm_words = cluster.stats().total_comm_words - words0;
    rec.ok = true;
  };

  if (!opt.trace) {
    const Phase ph = closed_loop<Record>(opt.seconds, solver_op);
    const double rss = peak_rss_mib();
    check_records(in, ph.records, out);
    const auto n = static_cast<std::int64_t>(ph.latency_ms.size());
    out.end_to_end = {
        {"setup_s", setup_s, "s", kSetups, "median of set-ups"},
        {"throughput_ops_s", ph.throughput(), "ops/s", n, ""},
        {"peak_rss_mib", rss, "MiB", 0, ""},
    };
    out.extra = {
        {"latency_p50_ms", percentile(ph.latency_ms, 0.5), "ms", n, ""},
        {"mpc_rounds_per_op", mean_of(ph.records, &Record::rounds), "rounds", n,
         "exact count"},
        {"mpc_comm_words_per_op", mean_of(ph.records, &Record::comm_words),
         "words", n, "exact count"},
        {"mpc_peak_machine_words",
         static_cast<double>(cluster.stats().max_machine_words), "words", 0,
         "exact count"},
    };
    if (const auto tail = tail_latency(ph.latency_ms)) out.extra.push_back(*tail);
    out.extra.push_back({"slo_attainment",
                         slo_attainment(ph.ok_latencies(), out.attempted, kSloLimitMs),
                         "ratio", n, "within " + json_number(kSloLimitMs) + " ms"});
    return out;
  }

  // Traced run: pairs of ops on one input, back to back — one through the
  // Solver (untraced, the overhead baseline) and one through the Solver's
  // delegates called directly on the Solver's own cluster, traced.
  Tracer tracer;
  std::int64_t merge_levels = 0;
  monge::core::MpcMultiplyReport rep_sum{};
  std::vector<Record> plain, traced;
  const Paired pairs = paired_calls(
      opt.seconds, 1 << 30,
      [&](int r) {
        Record rec;
        solver_op(r, rec);
        plain.push_back(std::move(rec));
      },
      [&](int r) {
        Record rec;
        rec.k = r % kDistinct;
        const OpInput& op = in[static_cast<std::size_t>(rec.k)];
        const monge::mpc::ClusterStats s0 = cluster.stats();
        Tracer::Scope root(tracer, "op.mpc", 0, r);
        const auto t0 = Clock::now();
        monge::lis::MpcLisResult lr;
        {
          Tracer::Scope s(tracer, "lis.mpc_lis", root.id(), r);
          lr = monge::lis::mpc_lis(cluster, op.lis.seq, monge::lis::MpcLisOptions{});
        }
        const auto t1 = Clock::now();
        monge::core::MpcMultiplyReport rep;
        {
          Tracer::Scope s(tracer, "core.mpc_multiply", root.id(), r);
          rec.product =
              monge::core::mpc_unit_monge_multiply(cluster, op.mul.a, op.mul.b, {}, &rep);
        }
        rec.mul_ms = ms_between(t1, Clock::now());
        rec.lis_ms = ms_between(t0, t1);
        rec.lis = lr.lis;
        const monge::mpc::ClusterStats s1 = cluster.stats();
        rec.rounds = s1.rounds - s0.rounds;
        rec.comm_words = s1.total_comm_words - s0.total_comm_words;
        rec.ok = true;
        traced.push_back(std::move(rec));
        merge_levels += lr.merge_levels;
        rep_sum.levels += rep.levels;
        rep_sum.lines += rep.lines;
        rep_sum.crossed_boxes += rep.crossed_boxes;
        rep_sum.rank_queries += rep.rank_queries;
      });
  check_records(in, plain, out);
  check_records(in, traced, out);

  const auto ops = static_cast<std::int64_t>(traced.size());
  const auto per_op = [&](std::int64_t v) {
    return static_cast<double>(v) / static_cast<double>(ops);
  };
  const auto median_field = [&](double Record::*field) {
    std::vector<double> v;
    for (const Record& r : traced) v.push_back(r.*field);
    return percentile(std::move(v), 0.5);
  };
  // Median over pairs of the Solver's time minus the delegate's.
  const auto overhead_us = [&](double Record::*field) {
    std::vector<double> d;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      d.push_back(1000.0 * (plain[i].*field - traced[i].*field));
    }
    return percentile(std::move(d), 0.5);
  };
  std::vector<double> round_us;
  for (const Record& r : traced) {
    round_us.push_back(1000.0 * (r.lis_ms + r.mul_ms) /
                       static_cast<double>(std::max<std::int64_t>(r.rounds, 1)));
  }
  std::vector<Metric> pl = zeroed_per_layer();
  set_metric(pl, "lis.mpc_lis.ms", median_field(&Record::lis_ms), ops);
  set_metric(pl, "lis.mpc_lis.merge_levels", per_op(merge_levels), ops);
  set_metric(pl, "core.mpc_multiply.ms", median_field(&Record::mul_ms), ops);
  set_metric(pl, "core.mpc_multiply.levels", per_op(rep_sum.levels), ops);
  set_metric(pl, "core.mpc_multiply.lines", per_op(rep_sum.lines), ops);
  set_metric(pl, "core.mpc_multiply.crossed_boxes", per_op(rep_sum.crossed_boxes),
             ops);
  set_metric(pl, "core.mpc_multiply.rank_queries", per_op(rep_sum.rank_queries),
             ops);
  set_metric(pl, "mpc.cluster.rounds", mean_of(traced, &Record::rounds), ops,
             "per op");
  set_metric(pl, "mpc.cluster.comm_words", mean_of(traced, &Record::comm_words),
             ops, "per op");
  set_metric(pl, "mpc.cluster.max_machine_words",
             static_cast<double>(cluster.stats().max_machine_words), 0);
  set_metric(pl, "mpc.cluster.round_us", percentile(round_us, 0.5), ops,
             "op wall-clock / rounds");
  set_metric(pl, "api.solver.overhead_us.lis_length", overhead_us(&Record::lis_ms), ops,
             "paired Solver::solve minus lis::mpc_lis, median");
  set_metric(pl, "api.solver.overhead_us.multiply", overhead_us(&Record::mul_ms), ops,
             "paired Solver::solve minus core::mpc_unit_monge_multiply, median");
  set_metric(pl, "trace.overhead_ratio", pairs.total_ratio(), ops,
             "traced / untraced throughput over the same paired ops");
  out.per_layer = std::move(pl);
  out.params["trace_file"] = opt.trace_out;
  print_layer_times(tracer, static_cast<double>(ops));
  if (!tracer.write_chrome_json(opt.trace_out, "mpc-lis")) {
    out.problems.push_back("could not write " + opt.trace_out);
  }
  return out;
}

}  // namespace perfbench
